#include "plc/function_blocks.hpp"

namespace steelnet::plc {

bool Ton::update(bool in, sim::SimTime now) {
  if (!in) {
    running_ = false;
    q_ = false;
    return q_;
  }
  if (!running_) {
    running_ = true;
    started_ = now;
  }
  q_ = now - started_ >= preset_;
  return q_;
}

sim::SimTime Ton::elapsed(sim::SimTime now) const {
  if (!running_) return sim::SimTime::zero();
  return std::min(now - started_, preset_);
}

bool Ctu::update(bool count, bool reset) {
  if (reset) {
    value_ = 0;
  } else if (count && !prev_) {
    ++value_;
  }
  prev_ = count;
  return q();
}

}  // namespace steelnet::plc
