/* C kernels of the storage layer: the CRC-32 behind Page.checksum and
   the positioned-I/O calls behind ExtUnix.pread / ExtUnix.pwrite.

   CRC-32 (IEEE, reflected polynomial 0xEDB88320).  Two paths compute
   the same function:

   - portable: slicing-by-8 over eight 256-entry tables, built once when
     the library is loaded;
   - x86-64 with PCLMULQDQ: carry-less multiplication folds 64 bytes per
     step, then 16, then reduces to 32 bits (Gopal et al., "Fast CRC
     Computation for Generic Polynomials Using PCLMULQDQ Instruction",
     Intel, 2009).  It takes a multiple of 16 bytes, at least 64; the
     portable path finishes the tail.

   The path is chosen once, when the library is loaded, through
   __builtin_cpu_supports.  Only the x86-64 code sits behind
   __x86_64__, so the file builds on every architecture. */

#define CAML_NAME_SPACE
#include <stdint.h>
#include <string.h>
#include <unistd.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* --- portable slicing-by-8 --- */

static uint32_t crc_tables[8][256];

static void crc_init_tables(void)
{
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_tables[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (uint32_t n = 0; n < 256; n++) {
      uint32_t prev = crc_tables[k - 1][n];
      crc_tables[k][n] = (prev >> 8) ^ crc_tables[0][prev & 0xFF];
    }
}

static inline uint32_t load_le32(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

/* [c] is the running register (the CRC with its final inversion undone). */
static uint32_t crc32_slice8(uint32_t c, const unsigned char *p, size_t len)
{
  while (len >= 8) {
    uint32_t lo = c ^ load_le32(p);
    uint32_t hi = load_le32(p + 4);
    c = crc_tables[7][lo & 0xFF] ^ crc_tables[6][(lo >> 8) & 0xFF]
        ^ crc_tables[5][(lo >> 16) & 0xFF] ^ crc_tables[4][lo >> 24]
        ^ crc_tables[3][hi & 0xFF] ^ crc_tables[2][(hi >> 8) & 0xFF]
        ^ crc_tables[1][(hi >> 16) & 0xFF] ^ crc_tables[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len--) c = crc_tables[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  return c;
}

/* --- x86-64 PCLMULQDQ folding --- */

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HYPER_CRC_PCLMUL 1
#include <immintrin.h>

/* Folding constants for the reflected polynomial: x^(4*128+32),
   x^(4*128-32), x^(128+32), x^(128-32), x^64 mod P, and the Barrett
   pair P' and mu, each bit-reflected (Gopal et al.). */
static const uint64_t k1k2[2] __attribute__((aligned(16))) =
  { 0x0154442bd4ULL, 0x01c6e41596ULL };
static const uint64_t k3k4[2] __attribute__((aligned(16))) =
  { 0x01751997d0ULL, 0x00ccaa009eULL };
static const uint64_t k5k0[2] __attribute__((aligned(16))) =
  { 0x0163cd6124ULL, 0 };
static const uint64_t poly[2] __attribute__((aligned(16))) =
  { 0x01db710641ULL, 0x01f7011641ULL };

/* Requires [len] a multiple of 16 and at least 64. */
__attribute__((target("pclmul,sse2")))
static uint32_t crc32_pclmul(uint32_t c, const unsigned char *p, size_t len)
{
  __m128i x0, x1, x2, x3, x4, x5, x6, x7, x8, y5, y6, y7, y8;

  x1 = _mm_loadu_si128((const __m128i *)(p + 0x00));
  x2 = _mm_loadu_si128((const __m128i *)(p + 0x10));
  x3 = _mm_loadu_si128((const __m128i *)(p + 0x20));
  x4 = _mm_loadu_si128((const __m128i *)(p + 0x30));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)c));
  x0 = _mm_load_si128((const __m128i *)k1k2);
  p += 64;
  len -= 64;

  /* Four lanes, 64 bytes per step. */
  while (len >= 64) {
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x6 = _mm_clmulepi64_si128(x2, x0, 0x00);
    x7 = _mm_clmulepi64_si128(x3, x0, 0x00);
    x8 = _mm_clmulepi64_si128(x4, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x2 = _mm_clmulepi64_si128(x2, x0, 0x11);
    x3 = _mm_clmulepi64_si128(x3, x0, 0x11);
    x4 = _mm_clmulepi64_si128(x4, x0, 0x11);
    y5 = _mm_loadu_si128((const __m128i *)(p + 0x00));
    y6 = _mm_loadu_si128((const __m128i *)(p + 0x10));
    y7 = _mm_loadu_si128((const __m128i *)(p + 0x20));
    y8 = _mm_loadu_si128((const __m128i *)(p + 0x30));
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5), y5);
    x2 = _mm_xor_si128(_mm_xor_si128(x2, x6), y6);
    x3 = _mm_xor_si128(_mm_xor_si128(x3, x7), y7);
    x4 = _mm_xor_si128(_mm_xor_si128(x4, x8), y8);
    p += 64;
    len -= 64;
  }

  /* Fold the four lanes into one. */
  x0 = _mm_load_si128((const __m128i *)k3k4);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);

  /* One lane, 16 bytes per step. */
  while (len >= 16) {
    x2 = _mm_loadu_si128((const __m128i *)p);
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
    p += 16;
    len -= 16;
  }

  /* 128 bits to 64. */
  x2 = _mm_clmulepi64_si128(x1, x0, 0x10);
  x3 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_srli_si128(x1, 8);
  x1 = _mm_xor_si128(x1, x2);
  x0 = _mm_loadl_epi64((const __m128i *)k5k0);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, x3);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  /* Barrett reduction to 32 bits. */
  x0 = _mm_load_si128((const __m128i *)poly);
  x2 = _mm_and_si128(x1, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x10);
  x2 = _mm_and_si128(x2, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return (uint32_t)_mm_cvtsi128_si32(_mm_srli_si128(x1, 4));
}

static int have_pclmul;
#endif

__attribute__((constructor)) static void crc_init(void)
{
  crc_init_tables();
#ifdef HYPER_CRC_PCLMUL
  __builtin_cpu_init();
  have_pclmul = __builtin_cpu_supports("pclmul");
#endif
}

static uint32_t crc32_update(uint32_t crc, const unsigned char *p, size_t len)
{
  uint32_t c = ~crc;
#ifdef HYPER_CRC_PCLMUL
  if (have_pclmul && len >= 64) {
    size_t chunk = len & ~(size_t)15;
    c = crc32_pclmul(c, p, chunk);
    p += chunk;
    len -= chunk;
  }
#endif
  return ~crc32_slice8(c, p, len);
}

/* The OCaml side checks the range; these take it as given. */
CAMLprim intnat caml_hyper_crc32_update(intnat crc, value buf, intnat pos,
                                        intnat len)
{
  return crc32_update((uint32_t)crc, Bytes_val(buf) + pos, (size_t)len);
}

CAMLprim value caml_hyper_crc32_update_byte(value crc, value buf, value pos,
                                            value len)
{
  return Val_long(caml_hyper_crc32_update(Long_val(crc), buf, Long_val(pos),
                                          Long_val(len)));
}

CAMLprim intnat caml_hyper_crc32_update_portable(intnat crc, value buf,
                                                 intnat pos, intnat len)
{
  return ~crc32_slice8(~(uint32_t)crc, Bytes_val(buf) + pos, (size_t)len);
}

CAMLprim value caml_hyper_crc32_update_portable_byte(value crc, value buf,
                                                     value pos, value len)
{
  return Val_long(caml_hyper_crc32_update_portable(
      Long_val(crc), buf, Long_val(pos), Long_val(len)));
}

CAMLprim value caml_hyper_crc32_hardware(value unit)
{
  (void)unit;
#ifdef HYPER_CRC_PCLMUL
  return Val_bool(have_pclmul);
#else
  return Val_false;
#endif
}

/* --- positioned I/O ---

   One pread(2) / pwrite(2) per call, at most UNIX_BUFFER_SIZE bytes.
   Like Unix.read and Unix.write, the call runs outside the runtime lock
   through a bounce buffer on the C stack, since the OCaml buffer may
   move while the lock is released.  The OCaml side checks the range. */

CAMLprim value caml_hyper_pread(value fd, value buf, value file_off,
                                value buf_off, value len)
{
  CAMLparam5(fd, buf, file_off, buf_off, len);
  char iobuf[UNIX_BUFFER_SIZE];
  size_t n = Long_val(len);
  off_t off = (off_t)Long_val(file_off);
  ssize_t ret;
  if (n > UNIX_BUFFER_SIZE) n = UNIX_BUFFER_SIZE;
  caml_enter_blocking_section();
  ret = pread(Int_val(fd), iobuf, n, off);
  caml_leave_blocking_section();
  if (ret == -1) uerror("pread", Nothing);
  memmove(&Byte(buf, Long_val(buf_off)), iobuf, ret);
  CAMLreturn(Val_long(ret));
}

CAMLprim value caml_hyper_pwrite(value fd, value buf, value file_off,
                                 value buf_off, value len)
{
  CAMLparam5(fd, buf, file_off, buf_off, len);
  char iobuf[UNIX_BUFFER_SIZE];
  size_t n = Long_val(len);
  off_t off = (off_t)Long_val(file_off);
  ssize_t ret;
  if (n > UNIX_BUFFER_SIZE) n = UNIX_BUFFER_SIZE;
  memmove(iobuf, &Byte(buf, Long_val(buf_off)), n);
  caml_enter_blocking_section();
  ret = pwrite(Int_val(fd), iobuf, n, off);
  caml_leave_blocking_section();
  if (ret == -1) uerror("pwrite", Nothing);
  CAMLreturn(Val_long(ret));
}
