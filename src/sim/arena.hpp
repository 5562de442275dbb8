#pragma once
/// \file arena.hpp
/// Thread-local free-list arena for coroutine frames.
///
/// Every process allocates a coroutine frame: executor and prepare loops,
/// each ICAP load and its producer lane, and each contended or
/// fault-hooked link transfer (an uncontended one needs no frame; see
/// SimplexLink::Transfer). These are short-lived and recycled at a high
/// rate, and the general allocator once dominated kernel time. Frames
/// instead come from a per-thread arena: blocks are carved from large chunks, rounded to a size class, and
/// recycled through intrusive free lists, so steady-state spawn/finish
/// cycles allocate nothing.
///
/// Confinement contract: a frame must be released on the thread that
/// allocated it. The simulator is already single-thread-confined (one
/// Simulator per sweep worker owns every process it runs), so this holds by
/// construction. Chunks live until thread exit; peak usage is a few dozen
/// live frames, so retention is bounded and small. A chunk is not zeroed:
/// only the pages frames are carved from become resident.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace prtr::sim::detail {

class FrameArena {
 public:
  void* allocate(std::size_t size) {
    const std::size_t total = size + kHeader;
    const std::size_t cls = (total - 1) / kGranule;  // total > 0 always
    if (cls >= kClasses) {
      auto* base = static_cast<std::byte*>(::operator new(total));
      writeHeader(base, kOversize);
      return base + kHeader;
    }
    if (FreeNode* node = free_[cls]) {
      free_[cls] = node->next;
      return node;  // node lives in the payload; the header is untouched
    }
    std::byte* base = carve((cls + 1) * kGranule);
    writeHeader(base, static_cast<std::uint64_t>(cls));
    return base + kHeader;
  }

  void release(void* ptr) noexcept {
    if (ptr == nullptr) return;
    auto* base = static_cast<std::byte*>(ptr) - kHeader;
    const std::uint64_t cls = readHeader(base);
    if (cls == kOversize) {
      ::operator delete(base);
      return;
    }
    // The node is stored in the payload, never over the header, so the
    // class written at carve time stays valid across every recycle.
    auto* node = new (ptr) FreeNode{free_[cls]};
    free_[cls] = node;
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  // 16-byte header keeps max_align_t alignment for the frame that follows
  // and records the size class so release() needs no size argument.
  static constexpr std::size_t kHeader = alignof(std::max_align_t);
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kClasses = 64;  // small frames up to 4 KiB
  static constexpr std::size_t kChunkBytes = 256 * 1024;
  static constexpr std::uint64_t kOversize = ~std::uint64_t{0};

  static void writeHeader(std::byte* base, std::uint64_t cls) noexcept {
    *reinterpret_cast<std::uint64_t*>(base) = cls;
  }
  static std::uint64_t readHeader(const std::byte* base) noexcept {
    return *reinterpret_cast<const std::uint64_t*>(base);
  }

  std::byte* carve(std::size_t bytes) {
    if (remaining_ < bytes) {
      chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(kChunkBytes));
      cursor_ = chunks_.back().get();
      remaining_ = kChunkBytes;
    }
    std::byte* block = cursor_;
    cursor_ += bytes;
    remaining_ -= bytes;
    return block;
  }

  FreeNode* free_[kClasses] = {};
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* cursor_ = nullptr;
  std::size_t remaining_ = 0;
};

/// The calling thread's frame arena.
inline FrameArena& frameArena() noexcept {
  thread_local FrameArena arena;
  return arena;
}

}  // namespace prtr::sim::detail
