#pragma once

// The shared-memory control plane of a forked worker group.
//
// One anonymous MAP_SHARED mmap created by the coordinator BEFORE fork(), so
// every worker inherits the mapping at the same virtual address and the
// references below stay valid across processes. It carries no training data
// (the tcp socket mesh does), only what the coordinator and the ranks must
// agree on to detect and report failure: the sticky abort block, per-rank
// liveness (heartbeat, done, dead), each rank's tcp listener port and last
// schedule, and rank 0's progress block. All cross-process state is
// std::atomic on ≤ 8-byte trivially-copyable types (address-free on this
// platform) plus fixed-size char buffers guarded by a CAS spinlock; there
// are no pthread objects in the region, so a SIGKILL'd worker can never
// leave a mutex in an undefined state.
//
// Layout (all blocks 64-byte aligned, offsets in the header):
//   ShmArenaHeader | ShmAbortBlock | ShmRankState[world] | ShmProgressBlock

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace vocab::transport {

/// True when anonymous shared mmap works on this platform — the capability
/// probe behind graceful test skips.
[[nodiscard]] bool shm_arena_supported();

/// CLOCK_MONOTONIC nanoseconds — consistent across processes on Linux, which
/// is what makes cross-process heartbeat ages meaningful.
[[nodiscard]] std::int64_t shm_monotonic_ns();

inline constexpr std::size_t kArenaAlign = 64;
inline constexpr std::uint64_t kArenaMagic = 0x564f434153484d31ULL;  // "VOCASHM1"
inline constexpr std::size_t kArenaAbortWhatBytes = 2048;
inline constexpr std::size_t kArenaProgressSlots = 4096;
inline constexpr std::size_t kArenaScheduleBytes = 64;

/// Minimal test-and-set spinlock that lives in shared memory, held only for
/// the few stores of ShmAbortBlock::post.
struct alignas(kArenaAlign) ShmSpinLock {
  std::atomic<std::uint32_t> held{0};

  void lock() noexcept;
  void unlock() noexcept;
};

/// Cross-process mirror of AbortToken: first post wins and is sticky.
struct alignas(kArenaAlign) ShmAbortBlock {
  ShmSpinLock lock;
  std::atomic<std::uint32_t> flag{0};
  std::int32_t device = -1;
  std::int32_t op_id = -1;
  char what[kArenaAbortWhatBytes] = {};

  /// Set the abort reason if none is set yet; returns true if this call won.
  bool post(int device, int op_id, const char* reason) noexcept;
  [[nodiscard]] bool aborted() const noexcept {
    return flag.load(std::memory_order_acquire) != 0;
  }
};

/// Per-rank liveness record. `heartbeat_ns` is stamped by the rank's
/// connection supervisor; 0 means "never stamped" (a rank that has not
/// finished attaching yet is not declared dead). `done` marks clean
/// shutdown, `dead` is set by whichever monitor first notices heartbeat loss
/// or waitpid.
struct alignas(kArenaAlign) ShmRankState {
  std::atomic<std::int64_t> heartbeat_ns{0};
  std::atomic<std::uint32_t> done{0};
  std::atomic<std::uint32_t> dead{0};
  /// TCP listener port advertisement for the mesh rendezvous: a forked rank
  /// binds 127.0.0.1:0 (or VOCAB_TCP_PORT_BASE + rank) and publishes the
  /// bound port here; peers poll until nonzero, then connect.
  std::atomic<std::uint32_t> tcp_port{0};
  /// Name of the schedule the rank's trainer ran last, written once by a
  /// rank that finishes its iterations and read by the coordinator after the
  /// rank exited (elastic workers; "" otherwise).
  char schedule[kArenaScheduleBytes] = {};
};

/// Coordinator-visible training progress: rank 0 writes losses[i] and then
/// publishes completed = i + 1 with release semantics, so after a crash the
/// coordinator knows exactly which iterations finished and with what loss.
struct alignas(kArenaAlign) ShmProgressBlock {
  std::atomic<std::int64_t> completed{0};
  float losses[kArenaProgressSlots] = {};
};

/// Header at offset 0 of an arena mapping.
struct ShmArenaHeader {
  std::uint64_t magic = 0;
  std::int32_t world = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t abort_offset = 0;
  std::uint64_t rank_state_offset = 0;
  std::uint64_t progress_offset = 0;
};

/// The pre-fork control plane for one elastic generation of `world` ranks,
/// fully laid out and initialized at create() time so workers never
/// allocate shared state.
class ShmArena {
 public:
  /// nullptr when shared mappings are unsupported.
  [[nodiscard]] static std::unique_ptr<ShmArena> create(int world);
  ~ShmArena();
  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;

  [[nodiscard]] int world() const { return header_->world; }

  [[nodiscard]] ShmAbortBlock& abort_block() const;
  [[nodiscard]] ShmRankState& rank_state(int rank) const;
  [[nodiscard]] ShmProgressBlock& progress() const;

 private:
  ShmArena(std::byte* base, std::size_t bytes)
      : base_(base), bytes_(bytes), header_(reinterpret_cast<ShmArenaHeader*>(base)) {}

  std::byte* base_;
  std::size_t bytes_;
  ShmArenaHeader* header_;
};

}  // namespace vocab::transport
