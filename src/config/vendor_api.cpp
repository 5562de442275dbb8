#include "config/vendor_api.hpp"

#include "bitstream/parser.hpp"

namespace prtr::config {

const char* toString(ApiStatus status) noexcept {
  switch (status) {
    case ApiStatus::kOk: return "ok";
    case ApiStatus::kRejectedSize: return "rejected(size)";
    case ApiStatus::kRejectedDone: return "rejected(done)";
    case ApiStatus::kTransientFault: return "transient-fault";
  }
  return "?";
}

ApiStatus VendorApi::check(const bitstream::Bitstream& stream) const {
  if (modifiedLoader_) return ApiStatus::kOk;
  const util::Bytes fullSize = memory_->device().geometry().fullBitstreamBytes();
  if (stream.size() != fullSize) return ApiStatus::kRejectedSize;
  // A full-size stream pushed at an already-configured device: the driver
  // first resets the array, so DONE behaves as expected -> accepted. A
  // partial stream can never reach this point (size check fires first),
  // but guard anyway: DONE stays high during a partial load.
  if (stream.isPartial() && memory_->done()) return ApiStatus::kRejectedDone;
  return ApiStatus::kOk;
}

sim::Process VendorApi::load(const bitstream::Bitstream& stream,
                             ApiStatus& status) {
  status = check(stream);
  if (status != ApiStatus::kOk) {
    // The driver still burns its setup time before failing the checks.
    ++rejects_;
    co_await sim_->delay(timing_.fixedOverhead);
    co_return;
  }
  if (faultHook_ && faultHook_(stream)) {
    // An injected transient driver fault: the call fails after the setup
    // overhead, like a stock rejection, but is retryable.
    status = ApiStatus::kTransientFault;
    ++transientFaults_;
    co_await sim_->delay(timing_.fixedOverhead);
    co_return;
  }
  co_await sim_->delay(loadTime(stream.size()));
  const bitstream::ParsedRef parsed = memory_->parsedFor(stream);
  if (stream.isPartial()) {
    memory_->applyPartial(*parsed);
  } else {
    memory_->applyFull(*parsed);
  }
  ++loads_;
  bytesWritten_ += stream.size().count();
}

}  // namespace prtr::config
