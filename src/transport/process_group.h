#pragma once

// fork()-based worker group for the tcp transport's multi-process mode.
//
// The coordinator creates the ShmArena, then spawns one OS process per
// pipeline device; each child runs `fn(rank)` and MUST leave via _exit (the
// spawn wrapper enforces this — a child that returns or throws is exited
// with a conventional code, never allowed to unwind back into the parent's
// copied stack). The parent stays thread-free until after every fork so the
// children never inherit a locked allocator or condition variable.
//
// Exit-code convention used by the elastic trainer:
//   0 — clean completion
//   3 — coordinated abort observed (AbortedError / DeadlockError): the rank
//       shut down in sympathy with a failure elsewhere
//   4 — unexpected exception
//   5 — the transport declared a peer dead (PeerDeadError: heartbeat silence
//       or reconnect budget exhausted over tcp) — the coordinator treats this
//       like a kill and downgrades, because the named peer is unreachable

#include <sys/types.h>

#include <chrono>
#include <functional>
#include <string>
#include <vector>

namespace vocab::transport {

inline constexpr int kWorkerExitOk = 0;
inline constexpr int kWorkerExitAborted = 3;
inline constexpr int kWorkerExitError = 4;
inline constexpr int kWorkerExitPeerDead = 5;

/// One reaped child. `signaled` means the process was killed by `sig`
/// (e.g. SIGKILL) rather than exiting.
struct ProcessExit {
  int rank = -1;
  bool exited = false;
  int status = 0;
  bool signaled = false;
  int sig = 0;

  [[nodiscard]] std::string describe() const;
};

/// A set of forked worker processes, reaped with nonblocking waitpid.
class ProcessGroup {
 public:
  /// Fork `world` children; child r runs `fn(r)` then _exit(kWorkerExitOk).
  /// An AbortedError/DeadlockError escaping fn exits kWorkerExitAborted, any
  /// other exception kWorkerExitError (with a note on stderr).
  [[nodiscard]] static ProcessGroup spawn(int world, const std::function<void(int)>& fn);

  ProcessGroup(ProcessGroup&&) = default;
  ProcessGroup& operator=(ProcessGroup&&) = default;
  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;
  /// Does not kill stragglers — call kill_all() first if the group must die.
  ~ProcessGroup() = default;

  /// Reap any children that have exited since the last poll (nonblocking).
  std::vector<ProcessExit> poll();
  /// Ranks not yet reaped.
  [[nodiscard]] std::vector<int> alive() const;
  [[nodiscard]] bool all_done() const;
  /// All exits reaped so far (cumulative, in reap order).
  [[nodiscard]] const std::vector<ProcessExit>& exits() const { return exits_; }

  void kill_rank(int rank, int sig);
  void kill_all(int sig);
  /// Poll until every child is reaped or `timeout` elapses; true on success.
  bool wait_all(std::chrono::milliseconds timeout);

 private:
  ProcessGroup() = default;

  std::vector<pid_t> pids_;
  std::vector<bool> reaped_;
  std::vector<ProcessExit> exits_;
};

}  // namespace vocab::transport
