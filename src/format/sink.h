//===- format/sink.h - The one output abstraction ----------------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Sink concept every output surface of the library is an instantiation
/// of.  The paper's free-format algorithm is output-agnostic -- digits
/// stream out one at a time -- so the digit->bytes core (render_core.h) is
/// written once against this concept and the public surfaces differ only in
/// where the bytes land:
///
///   StringSink    toShortest/toFixed/toPrecision/toExponential/formatPrintf:
///                 a growing std::string.
///   BufferSink    engine::format and every StringTable batch slot: a
///                 bounded caller buffer with snprintf-like counting --
///                 bytes past the capacity are dropped but counted, so
///                 required() always reports the full size the rendering
///                 needs (the overflow contract the C ABI surfaces as
///                 DRAGON4_ERR_SIZE).
///   StreamSink    engine::RecordStream: records appended to one contiguous
///                 caller-owned byte store (push-style streaming batches).
///   CountingSink  a pure measurer: dry-run length computation for sizing
///                 decisions (formatPrintf's field width), and the
///                 cross-check harness the sink tests use to prove
///                 written() agrees across sinks.
///
/// Because the renderers are templates over the concept, the bytes cannot
/// drift between surfaces: there is exactly one implementation of
/// digit->character placement, and the surfaces choose storage, not text.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_FORMAT_SINK_H
#define DRAGON4_FORMAT_SINK_H

#include <concepts>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

namespace dragon4 {

/// What a renderer may ask of an output surface.  append() is the bulk
/// write: \p N bytes at once, so a renderer that lays its text out
/// elsewhere first pays one call (for a bounded sink: one capacity check)
/// per run of bytes instead of one per byte.  written() reports the
/// characters the sink has accepted (for a bounded sink: counting the
/// dropped overflow, so it doubles as the required size).
template <typename S>
concept Sink = requires(S &W, const S &CW, char C, size_t N,
                        const char *Text) {
  { W.put(C) };
  { W.fill(N, C) };
  { W.literal(Text) };
  { W.append(Text, N) };
  { CW.written() } -> std::convertible_to<size_t>;
};

/// Growing std::string storage (the string API and printf surface).
struct StringSink {
  std::string Out;

  void put(char C) { Out.push_back(C); }
  void fill(size_t Count, char C) { Out.append(Count, C); }
  void literal(const char *Text) { Out.append(Text); }
  void append(const char *Text, size_t Count) { Out.append(Text, Count); }
  size_t written() const { return Out.size(); }
};

/// Bounded caller buffer with snprintf-like overflow behaviour (minus the
/// NUL): put() drops bytes past the capacity but keeps counting, so the
/// written prefix is exactly the first Capacity characters of the full
/// rendering and required() ends at the full length the output needs.
/// This is the engine::format / StringTable-slot / C-ABI surface.
class BufferSink {
public:
  BufferSink(char *Buffer, size_t Capacity) : Buf(Buffer), Cap(Capacity) {}

  void put(char C) {
    if (Pos < Cap)
      Buf[Pos] = C;
    ++Pos;
  }
  void fill(size_t Count, char C) {
    for (size_t I = 0; I < Count; ++I)
      put(C);
  }
  void literal(const char *Text) {
    for (; *Text; ++Text)
      put(*Text);
  }
  /// One capacity check in the common (fitting) case; on overflow the
  /// bytes that still fit are written, so the buffer keeps holding the
  /// first capacity bytes of the rendering.
  void append(const char *Text, size_t Count) {
    if (Pos + Count <= Cap) [[likely]] {
      if (Count != 0) // A size query passes Buf == nullptr.
        std::memcpy(Buf + Pos, Text, Count);
    } else if (Pos < Cap) {
      std::memcpy(Buf + Pos, Text, Cap - Pos);
    }
    Pos += Count;
  }
  size_t written() const { return Pos; }

  /// The full size the rendering needs, regardless of capacity.
  size_t required() const { return Pos; }
  /// True when the output did not fit: required() > capacity, and the
  /// buffer holds the first capacity bytes of the rendering.
  bool overflowed() const { return Pos > Cap; }
  size_t capacity() const { return Cap; }

private:
  char *Buf;
  size_t Cap;
  size_t Pos = 0;
};

/// Appends to a caller-owned byte store; written() is relative to the
/// position at construction, so one sink measures one record of a stream.
class StreamSink {
public:
  explicit StreamSink(std::vector<char> &Store)
      : Out(Store), Start(Store.size()) {}

  void put(char C) { Out.push_back(C); }
  void fill(size_t Count, char C) { Out.insert(Out.end(), Count, C); }
  void literal(const char *Text) {
    for (; *Text; ++Text)
      Out.push_back(*Text);
  }
  void append(const char *Text, size_t Count) {
    Out.insert(Out.end(), Text, Text + Count);
  }
  size_t written() const { return Out.size() - Start; }

private:
  std::vector<char> &Out;
  size_t Start;
};

/// Discards everything and counts: the dry-run sink for pure length
/// computation.  Its written() agrees with every other sink's because it
/// runs the very same renderer.
struct CountingSink {
  size_t Pos = 0;

  void put(char) { ++Pos; }
  void fill(size_t Count, char) { Pos += Count; }
  void literal(const char *Text) {
    while (*Text++)
      ++Pos;
  }
  void append(const char *, size_t Count) { Pos += Count; }
  size_t written() const { return Pos; }
};

static_assert(Sink<StringSink> && Sink<BufferSink> && Sink<StreamSink> &&
                  Sink<CountingSink>,
              "every shipped surface must model the Sink concept");

/// True when \p Out is a bounded sink whose output did not fit; unbounded
/// sinks never overflow.  Lets writer-generic code (engine/engine.cpp)
/// count truncation without knowing the sink type.
template <typename W> constexpr bool sinkOverflowed(const W &Out) {
  if constexpr (requires { Out.overflowed(); })
    return Out.overflowed();
  else
    return false;
}

} // namespace dragon4

#endif // DRAGON4_FORMAT_SINK_H
