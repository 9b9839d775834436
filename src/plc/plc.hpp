// steelnet::plc -- the PLC runtime: program + process image + cyclic bus.
//
// One Plc = one IL program scanned once per bus cycle: inputs arriving
// from the I/O device refresh the image; the output provider runs a scan
// and ships the Q area -- the classic read-execute-write loop, except the
// "backplane" is a (possibly virtualized, possibly jittery) network.
#pragma once

#include "plc/il.hpp"
#include "profinet/controller.hpp"

namespace steelnet::plc {

class Plc {
 public:
  /// Wires `program` into `controller`'s cyclic exchange. The controller
  /// must outlive the Plc.
  Plc(profinet::CyclicController& controller, IlProgram program);

  /// Starts connection establishment (and thereafter cyclic scanning).
  void start() { controller_.connect(); }
  void stop() { controller_.stop(); }

  [[nodiscard]] ProcessImage& image() { return image_; }
  [[nodiscard]] const ProcessImage& image() const { return image_; }
  [[nodiscard]] IlProgram& program() { return program_; }
  [[nodiscard]] profinet::CyclicController& controller() {
    return controller_;
  }
  [[nodiscard]] std::uint64_t scans() const { return program_.scans(); }

 private:
  profinet::CyclicController& controller_;
  IlProgram program_;
  ProcessImage image_;
};

}  // namespace steelnet::plc
