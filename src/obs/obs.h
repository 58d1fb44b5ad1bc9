//===- obs/obs.h - Observability configuration and gates ---------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability subsystem's switchboard.  Instrumentation is gated at
/// two levels:
///
///  * Compile time: building with -DDRAGON4_OBS_DISABLED (the CMake option
///    DRAGON4_OBS=OFF) compiles every trace point and every per-conversion
///    sampling check out of the hot paths entirely.  The cold-path pieces
///    (registry arithmetic, exporters) still build, so tools and tests link
///    in both configurations.
///
///  * Run time: obs::config().SampleEvery selects 1-in-N conversion
///    sampling (0, the default, disables sampling completely -- the only
///    residual cost is one predictable branch per conversion and one
///    thread-local load per traced call site).  Tracing, flight-recorder
///    capacity, and dump-on-truncate are further runtime knobs.
///
/// The runtime config is process-global and must be set before workloads
/// start (tools set it from command-line flags before constructing their
/// engines); it is read without synchronization on hot paths.
///
/// See docs/observability.md for the metric catalog and usage guide.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_OBS_OBS_H
#define DRAGON4_OBS_OBS_H

#include <cstdint>

#ifndef DRAGON4_OBS_DISABLED
#define DRAGON4_OBS_ENABLED 1
/// Statement-level trace gate: the body runs only in DRAGON4_OBS builds.
#define D4_OBS(...)                                                            \
  do {                                                                         \
    __VA_ARGS__;                                                               \
  } while (0)
#else
#define DRAGON4_OBS_ENABLED 0
#define D4_OBS(...)                                                            \
  do {                                                                         \
  } while (0)
#endif

namespace dragon4::obs {

/// Process-global observability knobs.
struct Config {
  /// Sample one conversion in every SampleEvery (per thread).  0 disables
  /// sampling: no latency clocks, no trace points, no flight records.
  uint32_t SampleEvery = 0;

  /// Collect span events (batch / worker / conversion scopes) for the
  /// Chrome trace_event exporter.  Spans are only emitted for sampled
  /// conversions, so SampleEvery also throttles trace volume.
  bool Trace = false;

  /// Ring capacity of each per-thread flight recorder, in conversion
  /// records.  Applied when a Scratch is constructed.
  uint32_t FlightCapacity = 64;

  /// Dump the flight recorder to stderr when a verify oracle mismatch is
  /// recorded, up to MismatchDumpLimit dumps per thread (a mass failure --
  /// e.g. an injected bug over an exhaustive domain -- would otherwise
  /// flood stderr with near-identical context).
  bool DumpOnMismatch = true;

  /// Mismatch-flagged records are additionally retained outside the ring
  /// (up to this many per thread), so a post-sweep report can show every
  /// failing conversion even after passing conversions recycled the ring.
  uint32_t MismatchKeepLimit = 256;
};

/// Flight-recorder dumps per thread under Config::DumpOnMismatch.
inline constexpr uint32_t MismatchDumpLimit = 3;

/// The mutable global config.  Tools write it once at startup.
Config &config();

/// True when sampling can ever fire (compile gate and runtime knob both
/// open).  Cold-path helper for tools deciding whether to emit reports.
bool enabled();

/// Steady-clock nanoseconds (monotonic, same epoch across threads).
uint64_t nowNanos();

} // namespace dragon4::obs

#endif // DRAGON4_OBS_OBS_H
