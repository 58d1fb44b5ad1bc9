//===- format/option_maps.h - PrintOptions to per-layer options --*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal: splits the public PrintOptions into the option blocks of the
/// layers a conversion runs through -- the free-format and fixed-format
/// digit cores and the renderer.  One definition, used by the engine
/// (engine/engine.cpp), which every string, buffer and C surface runs
/// through, so no two surfaces can map a knob differently.  The maps are
/// forced inline: renderOptionsFrom sits on the Ryu hot path, where an
/// out-of-line call returning the block by value costs a measurable few
/// ns per value.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_FORMAT_OPTION_MAPS_H
#define DRAGON4_FORMAT_OPTION_MAPS_H

#include "core/fixed_format.h"
#include "core/free_format.h"
#include "format/dtoa.h"
#include "format/render.h"

namespace dragon4 {

[[gnu::always_inline]] inline RenderOptions
renderOptionsFrom(const PrintOptions &Options) {
  RenderOptions Render;
  Render.Base = Options.Base;
  Render.ExponentMarker = Options.ExponentMarker;
  Render.MarkChar = Options.Marks == MarkStyle::Hash ? '#' : '0';
  Render.UppercaseDigits = Options.UppercaseDigits;
  return Render;
}

[[gnu::always_inline]] inline FreeFormatOptions
freeOptionsFrom(const PrintOptions &Options) {
  FreeFormatOptions Free;
  Free.Base = Options.Base;
  Free.Boundaries = Options.Boundaries;
  Free.Ties = Options.Ties;
  Free.Scaling = Options.Scaling;
  return Free;
}

[[gnu::always_inline]] inline FixedFormatOptions
fixedOptionsFrom(const PrintOptions &Options) {
  FixedFormatOptions Fixed;
  Fixed.Base = Options.Base;
  Fixed.Boundaries = Options.Boundaries;
  Fixed.Ties = Options.Ties;
  return Fixed;
}

} // namespace dragon4

#endif // DRAGON4_FORMAT_OPTION_MAPS_H
