/* The byte-moving C underneath the OCaml side: memcpy bridges between
   strings/bytes and Bigarray byte slices, and the one CRC-32.

   The stdlib has no bytes<->bigarray blit; without these the zero-copy
   data plane (Lastcpu_proto.Slice) and the snapshot writer's DRAM frames
   would fall back to byte-at-a-time loops. Bounds are checked on the
   OCaml side (Slice, Snapshot.W, Crc32). */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

/* (string|bytes) -> src_off -> bigarray -> dst_off -> len -> unit */
CAMLprim value lastcpu_blit_string_to_ba(value src, value src_off, value ba,
                                         value dst_off, value len)
{
  memcpy((char *)Caml_ba_data_val(ba) + Long_val(dst_off),
         Bytes_val(src) + Long_val(src_off), Long_val(len));
  return Val_unit;
}

/* bigarray -> src_off -> bytes -> dst_off -> len -> unit */
CAMLprim value lastcpu_blit_ba_to_bytes(value ba, value src_off, value dst,
                                        value dst_off, value len)
{
  memcpy(Bytes_val(dst) + Long_val(dst_off),
         (char *)Caml_ba_data_val(ba) + Long_val(src_off), Long_val(len));
  return Val_unit;
}

/* CRC-32 (IEEE 802.3, reflected 0xEDB88320), slice-by-8. It checksums
   every snapshot section, NAND page and WAL record, and every framed bus
   message, so it sits on both the storage and the checkpoint hot paths.

   The table is filled exactly once, by [lastcpu_crc32_init], which the
   Crc32 module calls from its initializer — before any domain exists —
   so shards checksumming concurrently only ever read it. */

static uint32_t crc_tab[8][256];

/* x2n_tab[k] = x^(2^k) mod P, for [lastcpu_crc32_combine]. */
static uint32_t x2n_tab[32];

/* a * b mod P over GF(2), in the reflected bit order of the CRC. */
static uint32_t multmodp(uint32_t a, uint32_t b)
{
  uint32_t m = (uint32_t)1 << 31, p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0)
        break;
    }
    m >>= 1;
    b = (b & 1) ? (b >> 1) ^ 0xEDB88320u : b >> 1;
  }
  return p;
}

CAMLprim value lastcpu_crc32_init(value unit)
{
  int n, k;
  uint32_t p;
  (void)unit;
  for (n = 0; n < 256; n++) {
    uint32_t c = (uint32_t)n;
    for (k = 0; k < 8; k++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_tab[0][n] = c;
  }
  for (n = 0; n < 256; n++) {
    uint32_t c = crc_tab[0][n];
    for (k = 1; k < 8; k++) {
      c = crc_tab[0][c & 0xff] ^ (c >> 8);
      crc_tab[k][n] = c;
    }
  }
  p = (uint32_t)1 << 30; /* x^1 */
  x2n_tab[0] = p;
  for (n = 1; n < 32; n++)
    x2n_tab[n] = p = multmodp(p, p);
  return Val_unit;
}

/* crc -> (string|bytes) -> pos -> len -> int: the CRC of the bytes seen
   so far ([crc], 0 for none) extended by [len] bytes at [pos]. The result
   is in [0, 2^32) and fits an OCaml int. */
CAMLprim value lastcpu_crc32_update(value vcrc, value vs, value vpos,
                                    value vlen)
{
  const unsigned char *p =
    (const unsigned char *)String_val(vs) + Long_val(vpos);
  long len = Long_val(vlen);
  uint32_t c = (uint32_t)Long_val(vcrc) ^ 0xFFFFFFFFu;
  while (len >= 8) {
    uint32_t lo = (uint32_t)p[0] | ((uint32_t)p[1] << 8)
                | ((uint32_t)p[2] << 16) | ((uint32_t)p[3] << 24);
    uint32_t hi = (uint32_t)p[4] | ((uint32_t)p[5] << 8)
                | ((uint32_t)p[6] << 16) | ((uint32_t)p[7] << 24);
    c ^= lo;
    c = crc_tab[7][c & 0xff] ^ crc_tab[6][(c >> 8) & 0xff]
      ^ crc_tab[5][(c >> 16) & 0xff] ^ crc_tab[4][c >> 24]
      ^ crc_tab[3][hi & 0xff] ^ crc_tab[2][(hi >> 8) & 0xff]
      ^ crc_tab[1][(hi >> 16) & 0xff] ^ crc_tab[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len-- > 0)
    c = crc_tab[0][(c ^ *p++) & 0xff] ^ (c >> 8);
  return Val_long((long)(c ^ 0xFFFFFFFFu));
}

/* crc1 -> crc2 -> len2 -> int: the CRC of A followed by B, from
   crc1 = CRC(A), crc2 = CRC(B) and len2 = |B|, without reading either
   (zlib's crc32_combine): shift crc1 past len2 zero bytes, i.e. multiply
   by x^(8 * len2) mod P, then add crc2. O(log len2). */
CAMLprim value lastcpu_crc32_combine(value vcrc1, value vcrc2, value vlen2)
{
  uint32_t p = (uint32_t)1 << 31; /* x^0 */
  unsigned long n = (unsigned long)Long_val(vlen2);
  unsigned k = 3;
  while (n) {
    if (n & 1)
      p = multmodp(x2n_tab[k & 31], p);
    n >>= 1;
    k++;
  }
  return Val_long((long)(multmodp(p, (uint32_t)Long_val(vcrc1))
                         ^ (uint32_t)Long_val(vcrc2)));
}
