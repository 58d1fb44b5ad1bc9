//===- dragon4.h - libdragon4 umbrella header --------------------*- C++ -*-===//
//
// Part of libdragon4, a reproduction of Burger & Dybvig, "Printing
// Floating-Point Numbers Quickly and Accurately" (PLDI 1996).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience umbrella: pulls in the whole public API.
///
/// Layering (each layer only depends on the ones above it).  One
/// traits-driven pipeline serves all five IEEE formats -- Binary16,
/// float, double, x87 long double, Binary128 -- from bits to bytes:
///
///   bigint/    arbitrary-precision integers and the B^k cache
///   rational/  exact rationals (the Section 2 oracle substrate)
///   fp/        IEEE-754 traits + FormatTraits<T>/FormatId, decomposition
///              (narrow f:uint64 or wide f:BigInt), Table 1 boundaries
///   core/      scaling, free-format, fixed-format, the rational oracle
///              (uint64 and BigInt digit loops behind one interface)
///   fastpath/  Ryu, the shortest-output front line for binary16/32/64
///              (traits-gated; the exact loop takes everything it
///              declines), and the Gay-style fixed-format fast path.
///              Ryu's digit emission reuses render_core's digit store (the
///              one accepted fastpath -> format edge: render_core.h itself
///              depends only on core/ and support/, so there is no cycle)
///   reader/    correctly rounded text -> float (exact; verification side)
///   parse/     Eisel-Lemire text -> float (production side), certified
///              fallback to reader/ on the undecidable residue
///   format/    the Sink concept (sink.h) and the writer-generic digit
///              rendering core (render_core.h) under the toShortest/
///              toFixed/toPrecision/toExponential/printf templates, all
///              five formats
///   engine/    formatInto<T, Sink> -- the one conversion body every
///              shortest surface instantiates -- and formatFixedInto, its
///              fixed-format twin, plus format<T>/formatFixed<T>,
///              RecordStream (push-style streaming), BatchEngine<T>,
///              type-erased AnyBatch, per-format counters and bounds
///   abi/       the stable C ABI (dragon4_to_chars.h): hardened, locale-
///              and allocation-free C99 entry points over engine/ + parse/
///   baselines/ Steele-White, Grisu3, straightforward fixed-format, printf
///              shim: bench competitors and differential oracles.  One
///              runs in production: fixed17 is formatPrintf's exact digit
///              generator (printf's true-expansion digits) until the
///              precision ladder moves that rung into core/
///   testgen/   Schryer-style and random workloads
///
/// The pipeline shape, identical for every T:
///
///   bits --(fp: decompose/decomposeBig)--> DecomposedFloat
///        --(fastpath: Ryu when certified; else core: exact digit loop)-->
///              digits + K
///        --(format/engine: one render core over one Sink concept)--> bytes
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_DRAGON4_H
#define DRAGON4_DRAGON4_H

#include "baselines/diyfp.h"
#include "baselines/fixed17.h"
#include "baselines/grisu.h"
#include "baselines/printf_shim.h"
#include "baselines/steele_white.h"
#include "bigint/bigint.h"
#include "bigint/power_cache.h"
#include "core/digits.h"
#include "core/fixed_format.h"
#include "core/free_format.h"
#include "core/options.h"
#include "core/reference.h"
#include "core/scaling.h"
#include "abi/dragon4_to_chars.h"
#include "engine/batch.h"
#include "engine/engine.h"
#include "engine/scratch.h"
#include "engine/stats.h"
#include "engine/stream.h"
#include "fastpath/fixed_fast.h"
#include "format/dtoa.h"
#include "format/printf_compat.h"
#include "format/render.h"
#include "format/scheme_notation.h"
#include "format/sink.h"
#include "fp/binary128.h"
#include "fp/binary16.h"
#include "fp/boundaries.h"
#include "fp/decomposed.h"
#include "fp/extended80.h"
#include "fp/ieee_traits.h"
#include "parse/parse.h"
#include "rational/rational.h"
#include "reader/reader.h"
#include "testgen/random_floats.h"
#include "testgen/schryer.h"

#endif // DRAGON4_DRAGON4_H
