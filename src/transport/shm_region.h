#pragma once

// Shared-memory region primitives for the multi-process transport backend.
//
// Everything here is laid out inside one anonymous MAP_SHARED mmap created by
// the coordinator BEFORE fork(), so every worker inherits the mapping at the
// same virtual address and the raw pointers in the views below stay valid
// across processes. All cross-process state is std::atomic on ≤ 8-byte
// trivially-copyable types (address-free on this platform) plus fixed-size
// char buffers guarded by a CAS spinlock; there are no pthread objects in the
// region, so a SIGKILL'd worker can never leave a mutex in an undefined state
// — the worst a dying writer can hold is ShmSpinLock, and every spin loop in
// the transport polls the abort/deadline path so that degenerates into a
// detected death, not a hang.
//
// Layout of an arena (all blocks 64-byte aligned, offsets in the header):
//   ShmArenaHeader | ShmAbortBlock | ShmRankState[world] | ShmProgressBlock
//   | one collective region (control + waiting flags + tags + per-rank slots
//     + result area) | num_mailboxes ring regions (control + data bytes)
//
// The single-purpose ShmMapping is the same mmap without the arena layout;
// the in-process shm mode gives each mailbox/collective its own mapping.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace vocab::transport {

/// True when anonymous shared mmap works on this platform — the capability
/// probe behind graceful test skips (ISSUE satellite: skip, don't fail).
[[nodiscard]] bool shm_transport_supported();

/// CLOCK_MONOTONIC nanoseconds — consistent across processes on Linux, which
/// is what makes cross-process heartbeat ages meaningful.
[[nodiscard]] std::int64_t shm_monotonic_ns();

inline constexpr std::size_t kShmAlign = 64;
inline constexpr std::uint64_t kShmMagic = 0x564f434153484d31ULL;  // "VOCASHM1"
inline constexpr std::size_t kShmTagBytes = 160;
inline constexpr std::size_t kShmFailureBytes = 1024;
inline constexpr std::size_t kShmAbortWhatBytes = 2048;
inline constexpr std::size_t kShmProgressSlots = 4096;
inline constexpr std::size_t kShmScheduleBytes = 64;

/// Minimal test-and-set spinlock that lives in shared memory. Callers must
/// bound their spin (try_lock + their own backoff/deadline); lock() is only
/// for short critical sections where the holder cannot be killed (the
/// coordinator, or in-process mode).
struct alignas(kShmAlign) ShmSpinLock {
  std::atomic<std::uint32_t> held{0};

  bool try_lock() noexcept;
  void lock() noexcept;
  void unlock() noexcept;
};

/// Cross-process mirror of AbortToken: first post wins and is sticky.
struct alignas(kShmAlign) ShmAbortBlock {
  ShmSpinLock lock;
  std::atomic<std::uint32_t> flag{0};
  std::int32_t device = -1;
  std::int32_t op_id = -1;
  char what[kShmAbortWhatBytes] = {};

  /// Set the abort reason if none is set yet; returns true if this call won.
  bool post(int device, int op_id, const char* reason) noexcept;
  [[nodiscard]] bool aborted() const noexcept {
    return flag.load(std::memory_order_acquire) != 0;
  }
};

/// Per-rank liveness record. `heartbeat_ns` is stamped by the rank's beacon
/// thread; 0 means "never stamped" (a rank that has not finished attaching
/// yet is not declared dead). `done` marks clean shutdown, `dead` is set by
/// whichever monitor first notices heartbeat loss or waitpid.
struct alignas(kShmAlign) ShmRankState {
  std::atomic<std::int64_t> heartbeat_ns{0};
  std::atomic<std::uint32_t> done{0};
  std::atomic<std::uint32_t> dead{0};
  /// TCP listener port advertisement for the tcp backend's mesh rendezvous:
  /// a forked rank binds 127.0.0.1:0 (or VOCAB_TCP_PORT_BASE + rank) and
  /// publishes the bound port here; peers poll until nonzero, then connect.
  /// 0 = not listening (shm-only runs never touch it).
  std::atomic<std::uint32_t> tcp_port{0};
  /// Name of the schedule the rank's trainer ran last, written once by a
  /// rank that finishes its iterations and read by the coordinator after the
  /// rank exited (elastic workers; "" otherwise).
  char schedule[kShmScheduleBytes] = {};
};

/// Coordinator-visible training progress: rank 0 writes losses[i] and then
/// publishes completed = i + 1 with release semantics, so after a crash the
/// coordinator knows exactly which iterations finished and with what loss.
struct alignas(kShmAlign) ShmProgressBlock {
  std::atomic<std::int64_t> completed{0};
  float losses[kShmProgressSlots] = {};
};

/// Fixed part of a collective region; the variable-size arrays (waiting
/// flags, tags, slots, result) follow it, addressed via ShmCollectiveView.
struct alignas(kShmAlign) ShmCollectiveControl {
  std::atomic<std::int32_t> arrived{0};
  std::atomic<std::int32_t> departed{0};
  std::atomic<std::uint64_t> generation{0};
  std::atomic<std::uint64_t> completed{0};
  ShmSpinLock failure_lock;
  std::atomic<std::uint32_t> failure_set{0};
  char failure[kShmFailureBytes] = {};

  /// First failure wins (mirrors DeviceGroup's failure_ string semantics).
  void post_failure(const char* text) noexcept;
  /// Copy of the failure text ("" when none). Safe without the lock: the
  /// buffer is written once before failure_set's release store.
  [[nodiscard]] const char* failure_text() const noexcept {
    return failure_set.load(std::memory_order_acquire) != 0 ? failure : "";
  }
};

/// Pointers into one collective region. Plain aggregate — recompute it in
/// each process from the (inherited) base pointer.
struct ShmCollectiveView {
  ShmCollectiveControl* control = nullptr;
  std::atomic<std::uint32_t>* waiting = nullptr;  ///< [world]
  char* tags = nullptr;                           ///< world * kShmTagBytes
  std::byte* slots = nullptr;                     ///< world * slot_bytes
  std::byte* result = nullptr;                    ///< world * slot_bytes
  int world = 0;
  std::size_t slot_bytes = 0;

  [[nodiscard]] char* tag(int rank) const { return tags + static_cast<std::size_t>(rank) * kShmTagBytes; }
  [[nodiscard]] std::byte* slot(int rank) const {
    return slots + static_cast<std::size_t>(rank) * slot_bytes;
  }
};

[[nodiscard]] std::size_t shm_collective_region_bytes(int world, std::size_t slot_bytes);
/// Compute the view over `base` (which must have region_bytes of space).
[[nodiscard]] ShmCollectiveView shm_map_collective(std::byte* base, int world,
                                                   std::size_t slot_bytes);
/// Placement-initialize every object in the region (creator side, pre-fork).
void shm_init_collective(const ShmCollectiveView& view);

/// Ring buffer control. head/tail are monotonically increasing byte counts
/// (position = value % capacity_bytes); occupancy counts messages written
/// but not yet *delivered* to a recv call — that is what gives the shm
/// mailbox the same bounded-channel backpressure semantics as the thread
/// Channel even though the reader eagerly drains the ring into local memory.
struct alignas(kShmAlign) ShmRingControl {
  ShmSpinLock write_lock;
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> tail{0};
  std::atomic<std::int64_t> occupancy{0};
  std::uint64_t capacity_bytes = 0;
};

struct ShmRingView {
  ShmRingControl* control = nullptr;
  std::byte* data = nullptr;  ///< capacity_bytes of circular storage
};

[[nodiscard]] std::size_t shm_ring_region_bytes(std::size_t ring_bytes);
[[nodiscard]] ShmRingView shm_map_ring(std::byte* base, std::size_t ring_bytes);
void shm_init_ring(const ShmRingView& view, std::size_t ring_bytes);

/// An anonymous MAP_SHARED mapping with no layout — the building block for
/// both the arena and the in-process single-object regions.
class ShmMapping {
 public:
  /// nullptr when the platform cannot create shared mappings.
  [[nodiscard]] static std::unique_ptr<ShmMapping> create(std::size_t bytes);
  ~ShmMapping();
  ShmMapping(const ShmMapping&) = delete;
  ShmMapping& operator=(const ShmMapping&) = delete;

  [[nodiscard]] std::byte* data() const { return base_; }
  [[nodiscard]] std::size_t size() const { return bytes_; }

 private:
  ShmMapping(std::byte* base, std::size_t bytes) : base_(base), bytes_(bytes) {}
  std::byte* base_;
  std::size_t bytes_;
};

struct ShmArenaOptions {
  int world = 1;
  std::size_t num_mailboxes = 0;
  std::size_t ring_bytes = std::size_t{8} << 20;  ///< data bytes per mailbox
  std::size_t slot_bytes = std::size_t{4} << 20;  ///< max serialized tensor
};

/// Header at offset 0 of an arena mapping.
struct ShmArenaHeader {
  std::uint64_t magic = 0;
  std::int32_t world = 0;
  std::uint32_t num_mailboxes = 0;
  std::uint64_t ring_bytes = 0;
  std::uint64_t slot_bytes = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t abort_offset = 0;
  std::uint64_t rank_state_offset = 0;
  std::uint64_t progress_offset = 0;
  std::uint64_t collective_offset = 0;
  std::uint64_t rings_offset = 0;
};

/// The pre-fork shared arena for one elastic generation: one collective
/// region plus `num_mailboxes` rings, fully laid out and initialized at
/// create() time so workers never allocate shared state — make_collective /
/// make_mailbox calls just consume blocks in creation order, which is
/// deterministic because every worker constructs the identical trainer.
class ShmArena {
 public:
  /// nullptr when shared mappings are unsupported.
  [[nodiscard]] static std::unique_ptr<ShmArena> create(const ShmArenaOptions& options);

  [[nodiscard]] int world() const { return header_->world; }
  [[nodiscard]] std::size_t num_mailboxes() const { return header_->num_mailboxes; }
  [[nodiscard]] const ShmArenaOptions& options() const { return options_; }

  [[nodiscard]] ShmAbortBlock& abort_block() const;
  [[nodiscard]] ShmRankState& rank_state(int rank) const;
  [[nodiscard]] ShmRankState* rank_states() const;
  [[nodiscard]] ShmProgressBlock& progress() const;
  [[nodiscard]] ShmCollectiveView collective() const;
  [[nodiscard]] ShmRingView ring(std::size_t index) const;

 private:
  explicit ShmArena(std::unique_ptr<ShmMapping> mapping, ShmArenaOptions options);

  std::unique_ptr<ShmMapping> mapping_;
  ShmArenaOptions options_;
  ShmArenaHeader* header_;
};

}  // namespace vocab::transport
