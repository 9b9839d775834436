#include "plc/plc.hpp"

#include "net/network.hpp"

namespace steelnet::plc {

Plc::Plc(profinet::CyclicController& controller, IlProgram program)
    : controller_(controller), program_(std::move(program)) {
  controller_.set_input_handler(
      [this](const std::vector<std::uint8_t>& bytes) {
        image_.load_input_bytes(bytes);
      });
  controller_.set_output_provider([this](std::size_t bytes) {
    // Scan at transmission time: the freshest inputs drive this cycle's
    // outputs (one-cycle latency, as on real hardware).
    program_.scan(image_, controller_.host().network().sim().now());
    return image_.output_bytes(bytes);
  });
}

}  // namespace steelnet::plc
