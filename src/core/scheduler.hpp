// Per-thread work deques and the scheduling policies studied in the paper:
// LIFO depth-first (MPC-OMP's heuristic, favouring cache reuse by running a
// task's successors right after it) versus FIFO breadth-first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "core/common.hpp"
#include "core/deque.hpp"
#include "core/task.hpp"

namespace tdg {

/// Scheduling heuristic for ready tasks.
enum class SchedulePolicy : std::uint8_t {
  DepthFirstLifo,    ///< newly-ready successors run first (cache reuse)
  BreadthFirstFifo,  ///< oldest ready task runs first
};

/// Task-throttling configuration (Section 5, "Task Throttling").
/// `max_ready` mimics the GCC/LLVM ready-task threshold; `max_total` is the
/// MPC-OMP bound on all co-existing tasks, ready or not. When a bound is
/// exceeded the producer thread stops discovering and executes tasks
/// instead.
///
/// MPC-OMP defaults `max_total` to 10,000,000 (the paper; the simulator's
/// SimThrottle keeps it). The runtime defaults to 4096: a producer that
/// discovers faster than the team executes otherwise runs ahead by as much
/// as the whole graph whenever the workers are descheduled, and peak
/// memory (~0.7 KB per unfinished task with its successor list) follows
/// host timing instead of the program. 4096 covers six lulesh-mini
/// iterations at TPL 64, more than the lookahead of an undisturbed run.
///
/// Under a shared WorkerPool these bounds double as the tenant's admission
/// quota: each runtime counts only its own ready/live tasks against its own
/// config, and a throttled tenant's producer self-helps on that tenant's
/// work alone — one tenant exceeding its quota never stalls another.
struct ThrottleConfig {
  std::size_t max_ready = std::numeric_limits<std::size_t>::max();
  std::size_t max_total = 4096;
};

/// Per-thread work deque, a thin policy adapter over the lock-free
/// Chase-Lev deque (core/deque.hpp). The owner pushes and pops at the
/// front (the Chase-Lev *bottom*); thieves take from the back (the *top* —
/// the oldest work, which in depth-first mode is the coarsest-grained and
/// farthest from the victim's cache). In FIFO breadth-first mode the owner
/// wants the oldest task too, so it self-steals from the top: Chase-Lev
/// explicitly supports the owner competing through the steal CAS.
class WorkDeque {
 public:
  /// Owner only.
  void push_front(Task* t) { dq_.push_bottom(t); }
  /// Owner only: newest task (depth-first LIFO).
  Task* pop_front() { return dq_.pop_bottom(); }
  /// Oldest task via the steal CAS (FIFO owner path; safe from any
  /// thread).
  Task* pop_back() { return dq_.steal_top(); }
  /// Steal the oldest task (any thread).
  Task* steal() { return dq_.steal_top(); }

  bool empty() const { return dq_.approx_empty(); }
  std::size_t size() const { return dq_.approx_size(); }

 private:
  ChaseLevDeque<Task> dq_;
};

}  // namespace tdg
