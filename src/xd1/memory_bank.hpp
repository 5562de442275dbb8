#pragma once
/// \file memory_bank.hpp
/// QDR-II SRAM banks local to the XD1 application accelerator FPGA
/// (4 banks x 4 MB = the 16 MB quoted in paper section 4). QDR-II is
/// dual-ported: reads and writes proceed concurrently, each at full rate.

#include <string>

#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace prtr::xd1 {

/// One QDR-II SRAM bank.
class QdrBank {
 public:
  QdrBank(sim::Simulator& sim, std::string name,
          util::Bytes capacity = util::Bytes::mebi(4),
          util::DataRate portRate = util::DataRate::gigabytesPerSecond(3.2))
      : capacity_(capacity),
        readPort_(sim, name + ".rd", portRate),
        writePort_(sim, name + ".wr", portRate),
        name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] util::Bytes capacity() const noexcept { return capacity_; }

  /// Awaitable: occupies the read port for size/rate.
  [[nodiscard]] sim::SimplexLink::Transfer read(util::Bytes size) noexcept {
    return readPort_.transfer(size);
  }
  /// Awaitable: occupies the write port for size/rate.
  [[nodiscard]] sim::SimplexLink::Transfer write(util::Bytes size) noexcept {
    return writePort_.transfer(size);
  }

  [[nodiscard]] util::Bytes bytesRead() const noexcept {
    return readPort_.totalBytes();
  }
  [[nodiscard]] util::Bytes bytesWritten() const noexcept {
    return writePort_.totalBytes();
  }

 private:
  util::Bytes capacity_;
  sim::SimplexLink readPort_;
  sim::SimplexLink writePort_;
  std::string name_;
};

}  // namespace prtr::xd1
