/*===- abi/dragon4_to_chars.h - Stable C ABI ---------------------*- C -*-===*
 *
 * Part of libdragon4. SPDX-License-Identifier: MIT
 *
 *===----------------------------------------------------------------------===*
 *
 * The stable C interface to the conversion engine: shortest-form and
 * fixed-precision printing plus correctly rounded parsing, for all five
 * supported formats, addressed by raw encoding bits so no caller-side
 * floating-point types are needed.  Pure C99 -- this header includes only
 * <stddef.h>/<stdint.h> and is compiled as C in CI (tests/abi/abi_c_smoke.c).
 *
 * Contract:
 *
 *   locale-free       output and parsing never consult the C locale; the
 *                     radix point is always '.'.
 *   allocation-free   conversions draw every intermediate from a scratch
 *                     workspace.  The default entry points use one
 *                     thread-local scratch; the _scratch variants take a
 *                     caller-owned one (dragon4_scratch_create).  A scratch
 *                     warms up over its first few conversions (its reusable
 *                     buffers grow once); every later call performs zero
 *                     heap allocations, including the exact-arithmetic
 *                     fallback path.
 *   reentrant         no global mutable state.  Distinct scratches are
 *                     fully independent; the thread-local default makes the
 *                     plain entry points safe to call concurrently from any
 *                     number of threads.
 *   no truncation     an undersized buffer is an error, not a silent clip:
 *                     DRAGON4_ERR_SIZE is returned and *length holds the
 *                     required size, so the caller can retry.  Buffer
 *                     contents are unspecified after DRAGON4_ERR_SIZE.
 *
 * Signal-safety caveat: the conversion paths themselves are lock-free and
 * allocation-free once a scratch is warm, but a *cold* scratch allocates
 * and the thread-local default is lazily constructed, so these functions
 * are NOT async-signal-safe in general.  A handler that must format may
 * pre-warm a dedicated scratch outside the handler and guarantee the
 * handler is the only user of it; see docs/api.md.
 *
 * Buffer sizing: dragon4_max_chars() (or the DRAGON4_MAX_CHARS10_* bounds
 * below, compile-time constants for base 10) bounds every shortest-form
 * output, so a caller buffer of that size never sees DRAGON4_ERR_SIZE from
 * dragon4_to_chars.  Fixed-precision output length is dominated by the
 * requested fraction digits; query with a zero-capacity probe call.
 *
 *===----------------------------------------------------------------------===*/

#ifndef DRAGON4_ABI_DRAGON4_TO_CHARS_H
#define DRAGON4_ABI_DRAGON4_TO_CHARS_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Supported formats, addressed by raw encoding bits.  Encodings of 64 bits
 * or fewer live entirely in bits_lo (high bits ignored); extended80 puts
 * the 16-bit sign+exponent word in bits_hi's low bits; binary128 splits
 * into low/high 64-bit halves. */
typedef enum dragon4_format {
  DRAGON4_FORMAT_BINARY16 = 0,
  DRAGON4_FORMAT_BINARY32 = 1,
  DRAGON4_FORMAT_BINARY64 = 2,
  DRAGON4_FORMAT_EXTENDED80 = 3,
  DRAGON4_FORMAT_BINARY128 = 4
} dragon4_format;

typedef enum dragon4_status {
  DRAGON4_OK = 0,
  /* The buffer is too small; *length holds the required size. */
  DRAGON4_ERR_SIZE = 1,
  /* An argument is out of range (bad format/base/enum value, required
   * pointer NULL, negative precision).  Nothing was written. */
  DRAGON4_ERR_BAD_ARGUMENT = 2,
  /* dragon4_from_chars: no valid literal prefix. */
  DRAGON4_ERR_MALFORMED = 3
} dragon4_status;

/* Reader model the output must survive (see the library's BoundaryMode).
 * The default, nearest-even, targets IEEE round-to-nearest readers and is
 * what shortest-form output conventionally means. */
typedef enum dragon4_boundaries {
  DRAGON4_BOUNDARIES_NEAREST_EVEN = 0,
  DRAGON4_BOUNDARIES_CONSERVATIVE = 1,
  DRAGON4_BOUNDARIES_BOTH_INCLUSIVE = 2,
  DRAGON4_BOUNDARIES_LOW_INCLUSIVE = 3,
  DRAGON4_BOUNDARIES_HIGH_INCLUSIVE = 4
} dragon4_boundaries;

/* Writer-side tie strategy for digits exactly halfway. */
typedef enum dragon4_ties {
  DRAGON4_TIES_ROUND_UP = 0,
  DRAGON4_TIES_ROUND_EVEN = 1,
  DRAGON4_TIES_ROUND_DOWN = 2
} dragon4_ties;

/* Conversion options.  All-zeros is the default configuration (base 10,
 * nearest-even reader, round-up ties, '#' marks, lowercase, 'e' marker) --
 * initialize with DRAGON4_OPTIONS_INIT, or pass NULL for defaults. */
typedef struct dragon4_options {
  uint8_t base;            /* 0 = base 10; otherwise 2..36.            */
  uint8_t boundaries;      /* a dragon4_boundaries value.              */
  uint8_t ties;            /* a dragon4_ties value.                    */
  uint8_t marks_as_zeros;  /* nonzero: insignificant trailing positions
                            * render as '0' instead of '#'.            */
  uint8_t uppercase_digits;/* nonzero: 'A'-'Z' for digit values 10-35. */
  char exponent_marker;    /* 0 = 'e'.                                 */
} dragon4_options;

#define DRAGON4_OPTIONS_INIT {0, 0, 0, 0, 0, 0}

/* Compile-time shortest-form output bounds for base 10 (from the engine's
 * maxShortestBufferSize<T>; asserted against it in abi.cpp).  A buffer of
 * DRAGON4_MAX_CHARS10 bytes fits any format's shortest form. */
enum {
  DRAGON4_MAX_CHARS10_BINARY16 = 23,
  DRAGON4_MAX_CHARS10_BINARY32 = 23,
  DRAGON4_MAX_CHARS10_BINARY64 = 24,
  DRAGON4_MAX_CHARS10_EXTENDED80 = 29,
  DRAGON4_MAX_CHARS10_BINARY128 = 44,
  DRAGON4_MAX_CHARS10 = 44
};

/* Runtime counterpart covering every base (2..36; base 0 means 10):
 * the tight engine bound on any dragon4_to_chars output for the format.
 * Returns 0 for an invalid format or base. */
size_t dragon4_max_chars(dragon4_format format, unsigned base);

/* Opaque conversion workspace (wraps the engine's Scratch).  One scratch,
 * one thread at a time. */
typedef struct dragon4_scratch dragon4_scratch;
dragon4_scratch *dragon4_scratch_create(void);
void dragon4_scratch_destroy(dragon4_scratch *scratch);

/* Shortest round-tripping form of the value encoded by bits_lo/bits_hi.
 * On DRAGON4_OK, *length is the number of bytes written (no NUL is ever
 * written or counted).  On DRAGON4_ERR_SIZE, *length is the required
 * size.  options may be NULL for defaults.  buffer may be NULL only with
 * capacity 0 (a pure size query).  Uses the calling thread's scratch. */
dragon4_status dragon4_to_chars(dragon4_format format, uint64_t bits_lo,
                                uint64_t bits_hi,
                                const dragon4_options *options, char *buffer,
                                size_t capacity, size_t *length);

/* Same, drawing from a caller-owned scratch. */
dragon4_status dragon4_to_chars_scratch(dragon4_scratch *scratch,
                                        dragon4_format format,
                                        uint64_t bits_lo, uint64_t bits_hi,
                                        const dragon4_options *options,
                                        char *buffer, size_t capacity,
                                        size_t *length);

/* Correctly rounded positional rendering with exactly fraction_digits
 * places after the point (the C ABI counterpart of toFixed). */
dragon4_status dragon4_to_chars_fixed(dragon4_format format,
                                      uint64_t bits_lo, uint64_t bits_hi,
                                      int fraction_digits,
                                      const dragon4_options *options,
                                      char *buffer, size_t capacity,
                                      size_t *length);

dragon4_status dragon4_to_chars_fixed_scratch(dragon4_scratch *scratch,
                                              dragon4_format format,
                                              uint64_t bits_lo,
                                              uint64_t bits_hi,
                                              int fraction_digits,
                                              const dragon4_options *options,
                                              char *buffer, size_t capacity,
                                              size_t *length);

/* Correctly rounded (nearest-even) parse of the longest valid base-10
 * literal prefix of text[0..text_length).  On DRAGON4_OK the encoding
 * lands in *bits_lo and *bits_hi, and *consumed (optional, may be NULL) is the
 * number of bytes of the literal.  Grammar: strtod's decimal subset plus
 * inf/infinity/nan, no locale, no whitespace skip, no hex.  binary32 and
 * binary64 allocate nothing at any literal length: the provably
 * undecidable residue of the fast path (literals truncated past 19
 * significant digits whose bracketing values round differently) is
 * settled by an exact comparison on the stack.  The other formats go
 * through the exact bignum reader, which may allocate. */
dragon4_status dragon4_from_chars(dragon4_format format, const char *text,
                                  size_t text_length, uint64_t *bits_lo,
                                  uint64_t *bits_hi, size_t *consumed);

/* Typed conveniences for the hardware formats. */
dragon4_status dragon4_double_to_chars(double value, char *buffer,
                                       size_t capacity, size_t *length);
dragon4_status dragon4_float_to_chars(float value, char *buffer,
                                      size_t capacity, size_t *length);
dragon4_status dragon4_chars_to_double(const char *text, size_t text_length,
                                       double *value, size_t *consumed);
dragon4_status dragon4_chars_to_float(const char *text, size_t text_length,
                                      float *value, size_t *consumed);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* DRAGON4_ABI_DRAGON4_TO_CHARS_H */
