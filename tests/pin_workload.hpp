#pragma once

// The bitstream of the decode determinism pin (decode_pin.hpp): 96x80,
// 5 frames, qscale 14, GOP {9,3}, seed 3, detail 8, no noise, motion
// speed 4.

#include <cstdint>
#include <vector>

#include "eclipse/media/codec.hpp"
#include "eclipse/media/video_gen.hpp"

namespace eclipse::pin {

inline std::vector<std::uint8_t> pinBitstream() {
  media::VideoGenParams vp;
  vp.width = 96;
  vp.height = 80;
  vp.frames = 5;
  vp.seed = 3;
  vp.detail = 8;
  vp.noise_level = 0.0;
  vp.motion_speed = 4;
  const auto frames = media::generateVideo(vp);
  media::CodecParams cp;
  cp.width = vp.width;
  cp.height = vp.height;
  cp.qscale = 14;
  cp.gop = {9, 3};
  media::Encoder enc(cp);
  return enc.encode(frames);
}

}  // namespace eclipse::pin
