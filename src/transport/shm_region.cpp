#include "transport/shm_region.h"

#include <sched.h>
#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

#include <cstring>
#include <new>

#include "common/error.h"

namespace vocab::transport {

namespace {

std::size_t align_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

}  // namespace

bool shm_arena_supported() {
  static const bool supported = [] {
    void* p = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return false;
    ::munmap(p, 4096);
    return true;
  }();
  return supported;
}

std::int64_t shm_monotonic_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// ---------------------------------------------------------------------------
// ShmSpinLock / ShmAbortBlock
// ---------------------------------------------------------------------------

void ShmSpinLock::lock() noexcept {
  int spins = 0;
  for (;;) {
    std::uint32_t expected = 0;
    if (held.compare_exchange_strong(expected, 1, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      return;
    }
    if (++spins >= 64) {
      ::sched_yield();
      spins = 0;
    }
  }
}

void ShmSpinLock::unlock() noexcept { held.store(0, std::memory_order_release); }

bool ShmAbortBlock::post(int dev, int op, const char* reason) noexcept {
  lock.lock();
  if (flag.load(std::memory_order_relaxed) != 0) {
    lock.unlock();
    return false;
  }
  device = dev;
  op_id = op;
  std::strncpy(what, reason == nullptr ? "" : reason, sizeof(what) - 1);
  what[sizeof(what) - 1] = '\0';
  flag.store(1, std::memory_order_release);
  lock.unlock();
  return true;
}

// ---------------------------------------------------------------------------
// ShmArena
// ---------------------------------------------------------------------------

std::unique_ptr<ShmArena> ShmArena::create(int world) {
  VOCAB_CHECK(world >= 1, "shm arena world must be >= 1, got " << world);

  ShmArenaHeader header;
  header.magic = kArenaMagic;
  header.world = world;
  std::size_t offset = align_up(sizeof(ShmArenaHeader), kArenaAlign);
  header.abort_offset = offset;
  offset += align_up(sizeof(ShmAbortBlock), kArenaAlign);
  header.rank_state_offset = offset;
  offset += align_up(static_cast<std::size_t>(world) * sizeof(ShmRankState), kArenaAlign);
  header.progress_offset = offset;
  offset += align_up(sizeof(ShmProgressBlock), kArenaAlign);
  header.total_bytes = offset;

  const std::size_t bytes = align_up(offset, static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)));
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return nullptr;

  auto arena = std::unique_ptr<ShmArena>(new ShmArena(static_cast<std::byte*>(p), bytes));
  *arena->header_ = header;
  new (&arena->abort_block()) ShmAbortBlock{};
  for (int r = 0; r < world; ++r) new (&arena->rank_state(r)) ShmRankState{};
  new (&arena->progress()) ShmProgressBlock{};
  return arena;
}

ShmArena::~ShmArena() { ::munmap(base_, bytes_); }

ShmAbortBlock& ShmArena::abort_block() const {
  return *reinterpret_cast<ShmAbortBlock*>(base_ + header_->abort_offset);
}

ShmRankState& ShmArena::rank_state(int rank) const {
  VOCAB_CHECK(rank >= 0 && rank < header_->world,
              "rank " << rank << " out of range [0, " << header_->world << ")");
  return reinterpret_cast<ShmRankState*>(base_ + header_->rank_state_offset)[rank];
}

ShmProgressBlock& ShmArena::progress() const {
  return *reinterpret_cast<ShmProgressBlock*>(base_ + header_->progress_offset);
}

}  // namespace vocab::transport
