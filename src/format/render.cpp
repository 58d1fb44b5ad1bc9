//===- format/render.cpp - DigitString to text ------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// std::string front end over the writer-generic renderers in
/// render_core.h: a StringSink instantiation of the same templates the
/// char-buffer engine, the batch slots, and the record stream drive (which
/// is what keeps engine::format byte-identical to toShortest).
///
//===----------------------------------------------------------------------===//

#include "format/render.h"

#include "format/render_core.h"
#include "format/sink.h"

using namespace dragon4;
using namespace dragon4::render_detail;

namespace {

SpanDigits spanOf(const DigitString &Digits, const RenderOptions &Options) {
  return SpanDigits(Digits.Digits, Digits.TrailingMarks, Options);
}

} // namespace

std::string dragon4::renderPositional(const DigitString &Digits,
                                      bool Negative,
                                      const RenderOptions &Options) {
  StringSink W;
  layoutPositional(W, spanOf(Digits, Options), Digits.K, Negative);
  return std::move(W.Out);
}

std::string dragon4::renderScientific(const DigitString &Digits,
                                      bool Negative,
                                      const RenderOptions &Options) {
  StringSink W;
  layoutScientific(W, spanOf(Digits, Options), Digits.K, Negative, Options);
  return std::move(W.Out);
}

std::string dragon4::renderAuto(const DigitString &Digits, bool Negative,
                                const RenderOptions &Options) {
  StringSink W;
  layoutAuto(W, spanOf(Digits, Options), Digits.K, Negative, Options);
  return std::move(W.Out);
}
