// steelnet::plc -- IEC 61131-3 standard function blocks.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.hpp"

namespace steelnet::plc {

/// TON: on-delay timer. Q rises `preset` after IN rises; falls with IN.
class Ton {
 public:
  explicit Ton(sim::SimTime preset) : preset_(preset) {}

  bool update(bool in, sim::SimTime now);

  [[nodiscard]] bool q() const { return q_; }
  [[nodiscard]] sim::SimTime elapsed(sim::SimTime now) const;
  [[nodiscard]] sim::SimTime preset() const { return preset_; }

 private:
  sim::SimTime preset_;
  sim::SimTime started_;
  bool running_ = false;
  bool q_ = false;
};

/// CTU: up counter with reset. Q when count >= preset.
class Ctu {
 public:
  explicit Ctu(std::uint32_t preset) : preset_(preset) {}

  bool update(bool count, bool reset);
  [[nodiscard]] std::uint32_t value() const { return value_; }
  [[nodiscard]] bool q() const { return value_ >= preset_; }

 private:
  std::uint32_t preset_;
  std::uint32_t value_ = 0;
  bool prev_ = false;
};

}  // namespace steelnet::plc
