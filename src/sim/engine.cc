#include "src/sim/engine.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "src/base/log.h"

#if defined(MALT_SANITIZE_ADDRESS)
#include <sanitizer/asan_interface.h>
#endif
#if defined(MALT_SANITIZE_THREAD)
#include <sanitizer/tsan_interface.h>
#endif

namespace malt {

// ---------------------------------------------------------------------------
// Concurrency model
//
// Every process body runs on its own fiber, and every fiber runs on the
// thread that called Run(). Control moves only by swapcontext: the scheduler
// switches to one process (RunProcessSlice), which runs until its next yield
// point and switches back (YieldFromProcess). Exactly one piece of code
// touches simulator state at any instant, so none of it is locked, and event
// callbacks may call ScheduleEvent() freely.
//
// Under ASan and TSan each switch is announced to the sanitizer, which
// otherwise mistakes a stack change for stack corruption (ASan) or loses
// happens-before between fibers (TSan).
// ---------------------------------------------------------------------------

namespace {

// The same size as a default thread stack. The mapping reserves no memory up
// front (MAP_NORESERVE), so only the pages a body touches cost anything.
constexpr size_t kStackBytes = size_t{8} << 20;

size_t PageBytes() { return static_cast<size_t>(sysconf(_SC_PAGESIZE)); }

// Tells ASan which stack the next swapcontext lands on. `fake_stack_save` is
// null when the current fiber is leaving for good.
void AsanStartSwitch([[maybe_unused]] void** fake_stack_save, [[maybe_unused]] const void* bottom,
                     [[maybe_unused]] size_t size) {
#if defined(MALT_SANITIZE_ADDRESS)
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#endif
}

void AsanFinishSwitch([[maybe_unused]] void* fake_stack,
                      [[maybe_unused]] const void** bottom_old,
                      [[maybe_unused]] size_t* size_old) {
#if defined(MALT_SANITIZE_ADDRESS)
  __sanitizer_finish_switch_fiber(fake_stack, bottom_old, size_old);
#endif
}

void TsanSwitch([[maybe_unused]] void* fiber) {
#if defined(MALT_SANITIZE_THREAD)
  __tsan_switch_to_fiber(fiber, 0);  // flags 0: the switch synchronizes
#endif
}

}  // namespace

void Process::Advance(SimDuration dt) {
  MALT_CHECK(dt >= 0) << "Advance with negative duration " << dt;
  clock_ += dt;
  engine_->YieldFromProcess(*this, ProcState::kRunnable);
}

void Process::Yield() { engine_->YieldFromProcess(*this, ProcState::kRunnable); }

void Process::WaitUntil(std::function<bool()> pred) {
  if (pred()) {
    return;
  }
  pred_ = std::move(pred);
  deadline_ = -1;
  engine_->YieldFromProcess(*this, ProcState::kBlocked);
}

bool Process::WaitUntilOr(std::function<bool()> pred, SimTime deadline) {
  if (pred()) {
    return true;
  }
  if (deadline <= clock_) {
    return false;
  }
  pred_ = std::move(pred);
  deadline_ = deadline;
  timed_out_ = false;
  engine_->YieldFromProcess(*this, ProcState::kBlocked);
  return !timed_out_;
}

void Process::SleepUntil(SimTime t) {
  if (t <= clock_) {
    return;
  }
  Advance(t - clock_);
}

void Process::CheckKilled() {
  if (kill_pending_) {
    throw ProcessKilled{pid_};
  }
}

Engine::~Engine() {
  // Run() releases every fiber as its body finishes; this covers an engine
  // that never ran to completion.
  for (const auto& proc : procs_) {
    ReleaseFiber(*proc);
  }
}

int Engine::AddProcess(std::string name, std::function<void(Process&)> body) {
  MALT_CHECK(!running_) << "AddProcess after Run()";
  auto proc = std::unique_ptr<Process>(new Process());
  proc->engine_ = this;
  proc->pid_ = static_cast<int>(procs_.size());
  proc->name_ = std::move(name);
  proc->body_ = std::move(body);
  procs_.push_back(std::move(proc));
  return procs_.back()->pid_;
}

void Engine::ScheduleKill(int pid, SimTime when) {
  // Validated at fire time: kills are routinely scheduled before processes
  // are registered (test setup, experiment scripts).
  ScheduleEvent(when, [this, pid] {
    MALT_CHECK(pid >= 0 && pid < static_cast<int>(procs_.size())) << "bad pid " << pid;
    KillProcess(*procs_[static_cast<size_t>(pid)]);
  });
}

void Engine::ScheduleEvent(SimTime when, std::function<void()> fn) {
  events_.push(Event{when, next_event_seq_++, std::move(fn)});
}

void Engine::AddKillHook(std::function<void(int pid)> hook) {
  kill_hooks_.push_back(std::move(hook));
}

bool Engine::alive(int pid) const { return state(pid) != ProcState::kKilled; }

ProcState Engine::state(int pid) const { return procs_[static_cast<size_t>(pid)]->state_; }

void Engine::StartFiber(Process& p) {
  const size_t page = PageBytes();
  void* map = mmap(nullptr, page + kStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  MALT_CHECK(map != MAP_FAILED) << "cannot map a fiber stack for " << p.name_;
  // The stack grows down: an overflow hits this page and faults.
  MALT_CHECK(mprotect(map, page, PROT_NONE) == 0) << "cannot guard the stack of " << p.name_;
  p.stack_map_ = map;
  MALT_CHECK(getcontext(&p.context_) == 0);
  p.context_.uc_stack.ss_sp = static_cast<char*>(map) + page;
  p.context_.uc_stack.ss_size = kStackBytes;
  p.context_.uc_link = nullptr;  // RunFiber never returns
  // makecontext passes int-sized arguments only, so the pointer travels in
  // two halves.
  const auto bits = reinterpret_cast<uintptr_t>(&p);
  makecontext(&p.context_, reinterpret_cast<void (*)()>(&Engine::FiberEntry), 2,
              static_cast<unsigned int>(bits >> 32), static_cast<unsigned int>(bits));
#if defined(MALT_SANITIZE_THREAD)
  p.tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

void Engine::ReleaseFiber(Process& p) {
  if (p.stack_map_ == nullptr) {
    return;
  }
#if defined(MALT_SANITIZE_THREAD)
  __tsan_destroy_fiber(p.tsan_fiber_);
  p.tsan_fiber_ = nullptr;
#endif
  const size_t bytes = PageBytes() + kStackBytes;
#if defined(MALT_SANITIZE_ADDRESS)
  // Drop the finished body's stale poisoning before the range is reused.
  ASAN_UNPOISON_MEMORY_REGION(p.stack_map_, bytes);
#endif
  MALT_CHECK(munmap(p.stack_map_, bytes) == 0) << "cannot unmap the stack of " << p.name_;
  p.stack_map_ = nullptr;
}

void Engine::FiberEntry(unsigned int ptr_hi, unsigned int ptr_lo) {
  auto* p = reinterpret_cast<Process*>((static_cast<uintptr_t>(ptr_hi) << 32) | ptr_lo);
  p->engine_->RunFiber(*p);
}

void Engine::RunFiber(Process& p) {
  AsanFinishSwitch(nullptr, &scheduler_stack_bottom_, &scheduler_stack_size_);
  // Any other exception escaping the body ends the program (std::terminate),
  // as it would escaping a thread.
  bool killed = false;
  try {
    p.CheckKilled();
    p.body_(p);
  } catch (const ProcessKilled&) {
    killed = true;
  }
  p.state_ = (killed || p.kill_pending_) ? ProcState::kKilled : ProcState::kDone;
  // Leave for good: the scheduler resumes in SwitchToProcess and releases
  // this stack.
  AsanStartSwitch(nullptr, scheduler_stack_bottom_, scheduler_stack_size_);
  TsanSwitch(scheduler_tsan_fiber_);
  setcontext(&scheduler_context_);
  std::abort();  // unreachable: setcontext does not return on success
}

void Engine::SwitchToProcess(Process& p) {
  AsanStartSwitch(&scheduler_fake_stack_, p.context_.uc_stack.ss_sp,
                  p.context_.uc_stack.ss_size);
  TsanSwitch(p.tsan_fiber_);
  MALT_CHECK(swapcontext(&scheduler_context_, &p.context_) == 0);
  AsanFinishSwitch(scheduler_fake_stack_, nullptr, nullptr);
}

void Engine::SwitchToScheduler(Process& p) {
  AsanStartSwitch(&p.asan_fake_stack_, scheduler_stack_bottom_, scheduler_stack_size_);
  TsanSwitch(scheduler_tsan_fiber_);
  MALT_CHECK(swapcontext(&p.context_, &scheduler_context_) == 0);
  AsanFinishSwitch(p.asan_fake_stack_, &scheduler_stack_bottom_, &scheduler_stack_size_);
}

void Engine::YieldFromProcess(Process& p, ProcState new_state) {
  MALT_CHECK(std::current_exception() == nullptr)
      << "process " << p.name_ << " yields inside a catch handler (see engine.h)";
  p.state_ = new_state;
  SwitchToScheduler(p);
  p.CheckKilled();
}

void Engine::KillProcess(Process& p) {
  // Runs in event context (on the scheduler).
  if (p.state_ == ProcState::kDone || p.state_ == ProcState::kKilled || p.kill_pending_) {
    return;
  }
  p.kill_pending_ = true;
  p.clock_ = std::max(p.clock_, current_time_);
  if (p.state_ == ProcState::kBlocked) {
    // Wake it so the pending kill unwinds its stack.
    p.state_ = ProcState::kRunnable;
    p.pred_ = nullptr;
    p.deadline_ = -1;
  }
  MALT_LOG_S(kInfo) << "sim: killing process " << p.pid_ << " (" << p.name_ << ") at t="
                    << ToSeconds(current_time_) << "s";
  for (const auto& hook : kill_hooks_) {
    hook(p.pid_);
  }
}

void Engine::ReevaluateBlocked(SimTime wake_time) {
  for (const auto& proc : procs_) {
    Process& p = *proc;
    if (p.state_ != ProcState::kBlocked) {
      continue;
    }
    if (p.pred_ && p.pred_()) {
      p.state_ = ProcState::kRunnable;
      p.pred_ = nullptr;
      p.deadline_ = -1;
      p.timed_out_ = false;
      p.clock_ = std::max(p.clock_, wake_time);
      ++stats_.wakeups;
    }
  }
}

void Engine::ApplyEvent(Event event) {
  // now() is the time of the current dispatch. It is not globally monotonic
  // across dispatches (a coarse process slice may already have run past this
  // event's time); consumers needing ordering use absolute event times.
  current_time_ = event.when;
  if (trace_enabled_) {
    trace_.push_back("E@" + std::to_string(event.when));
  }
  event.fn();
  ++stats_.events_applied;
  ReevaluateBlocked(event.when);
}

void Engine::RunProcessSlice(Process& p) {
  current_time_ = p.clock_;
  if (trace_enabled_) {
    std::string entry = "P";
    entry += std::to_string(p.pid_);
    entry += '@';
    entry += std::to_string(p.clock_);
    trace_.push_back(std::move(entry));
  }
  p.state_ = ProcState::kRunning;
  SwitchToProcess(p);
  ++stats_.slices_run;
  current_time_ = p.clock_;
  if (p.state_ == ProcState::kDone || p.state_ == ProcState::kKilled) {
    ReleaseFiber(p);
  }
  ReevaluateBlocked(p.clock_);
}

void Engine::ReportDeadlock() {
  std::string detail = "simulator deadlock; blocked processes:";
  for (const auto& proc : procs_) {
    if (proc->state_ == ProcState::kBlocked) {
      detail += " " + proc->name_ + "(pid=" + std::to_string(proc->pid_) +
                ",t=" + std::to_string(proc->clock_) + ")";
    }
  }
  MALT_CHECK(false) << detail;
  std::abort();  // unreachable; MALT_CHECK aborts
}

void Engine::Run() {
  MALT_CHECK(!running_) << "Engine::Run called twice";
  running_ = true;
#if defined(MALT_SANITIZE_THREAD)
  scheduler_tsan_fiber_ = __tsan_get_current_fiber();
#endif
  for (const auto& proc : procs_) {
    StartFiber(*proc);
  }

  for (;;) {
    // Pick the earliest actionable item. Tie order: events, then deadline
    // expirations, then process slices — fixed so the schedule is
    // deterministic.
    const bool have_event = !events_.empty();
    const SimTime event_time = have_event ? events_.top().when : 0;

    Process* best_proc = nullptr;
    Process* best_deadline = nullptr;
    bool all_finished = true;
    for (const auto& proc : procs_) {
      Process& p = *proc;
      if (p.state_ == ProcState::kRunnable) {
        all_finished = false;
        if (best_proc == nullptr || p.clock_ < best_proc->clock_) {
          best_proc = &p;
        }
      } else if (p.state_ == ProcState::kBlocked) {
        all_finished = false;
        if (p.deadline_ >= 0 &&
            (best_deadline == nullptr || p.deadline_ < best_deadline->deadline_)) {
          best_deadline = &p;
        }
      }
    }

    if (all_finished) {
      if (!have_event) {
        break;
      }
      // Drain remaining events (e.g. in-flight writes after all ranks done).
      Event event = events_.top();
      events_.pop();
      ApplyEvent(std::move(event));
      continue;
    }

    // Candidate times.
    struct Choice {
      SimTime t;
      int category;  // 0 event, 1 deadline, 2 process
    };
    Choice chosen{0, -1};
    if (have_event) {
      chosen = {event_time, 0};
    }
    if (best_deadline != nullptr &&
        (chosen.category < 0 || best_deadline->deadline_ < chosen.t)) {
      chosen = {best_deadline->deadline_, 1};
    }
    if (best_proc != nullptr && (chosen.category < 0 || best_proc->clock_ < chosen.t)) {
      chosen = {best_proc->clock_, 2};
    }
    if (chosen.category < 0) {
      ReportDeadlock();
    }

    switch (chosen.category) {
      case 0: {
        Event event = events_.top();
        events_.pop();
        ApplyEvent(std::move(event));
        break;
      }
      case 1: {
        Process& p = *best_deadline;
        p.state_ = ProcState::kRunnable;
        p.timed_out_ = true;
        p.pred_ = nullptr;
        p.clock_ = std::max(p.clock_, p.deadline_);
        p.deadline_ = -1;
        current_time_ = std::max(current_time_, p.clock_);
        break;
      }
      case 2: {
        RunProcessSlice(*best_proc);
        break;
      }
      default:
        ReportDeadlock();
    }
  }
}

}  // namespace malt
