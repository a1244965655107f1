// Tests for the discrete-event engine: virtual-time ordering, blocking,
// deadlines, kill injection, determinism, and the fibers processes run on.

#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace malt {
namespace {

// True if some mapping in /proc/self/maps contains `addr`.
bool IsMapped(uintptr_t addr) {
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    std::istringstream range(line);
    uintptr_t begin = 0;
    uintptr_t end = 0;
    char dash = 0;
    range >> std::hex >> begin >> dash >> end;
    if (addr >= begin && addr < end) {
      return true;
    }
  }
  return false;
}

// Recurses `depth` frames of at least 4 KiB each, advancing virtual time at
// the bottom so the deep stack is switched away from and back to.
int RecurseThenAdvance(Process& p, int depth) {
  volatile char frame[4096];
  frame[0] = static_cast<char>(depth);
  frame[sizeof(frame) - 1] = 1;
  if (depth == 0) {
    p.Advance(10);
    return frame[0];
  }
  return RecurseThenAdvance(p, depth - 1) + frame[sizeof(frame) - 1];
}

TEST(Engine, SingleProcessAdvancesClock) {
  Engine engine;
  SimTime end_time = -1;
  engine.AddProcess("p0", [&](Process& p) {
    EXPECT_EQ(p.now(), 0);
    p.Advance(100);
    EXPECT_EQ(p.now(), 100);
    p.Advance(50);
    end_time = p.now();
  });
  engine.Run();
  EXPECT_EQ(end_time, 150);
}

TEST(Engine, ProcessesInterleaveInVirtualTimeOrder) {
  Engine engine;
  std::vector<std::pair<int, SimTime>> order;
  // p0 takes big steps, p1 small steps; the engine must run whichever has
  // the smaller clock.
  engine.AddProcess("p0", [&](Process& p) {
    for (int i = 0; i < 3; ++i) {
      order.push_back({0, p.now()});
      p.Advance(100);
    }
  });
  engine.AddProcess("p1", [&](Process& p) {
    for (int i = 0; i < 6; ++i) {
      order.push_back({1, p.now()});
      p.Advance(50);
    }
  });
  engine.Run();
  // Recorded (pid, time) pairs must be sorted by time.
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(order[i].second, order[i - 1].second)
        << "entry " << i << " ran out of order";
  }
}

TEST(Engine, EventsApplyAtTheirTime) {
  Engine engine;
  int flag = 0;
  SimTime observed_at = -1;
  engine.ScheduleEvent(500, [&] { flag = 1; });
  engine.AddProcess("poller", [&](Process& p) {
    p.WaitUntil([&] { return flag == 1; });
    observed_at = p.now();
  });
  engine.Run();
  EXPECT_EQ(observed_at, 500);
}

TEST(Engine, WaitUntilOrTimesOut) {
  Engine engine;
  bool timed_out = false;
  engine.AddProcess("p", [&](Process& p) {
    const bool ok = p.WaitUntilOr([] { return false; }, 1000);
    timed_out = !ok;
    EXPECT_EQ(p.now(), 1000);
  });
  engine.Run();
  EXPECT_TRUE(timed_out);
}

TEST(Engine, WaitUntilOrSucceedsBeforeDeadline) {
  Engine engine;
  int flag = 0;
  engine.ScheduleEvent(200, [&] { flag = 1; });
  engine.AddProcess("p", [&](Process& p) {
    const bool ok = p.WaitUntilOr([&] { return flag == 1; }, 1000);
    EXPECT_TRUE(ok);
    EXPECT_EQ(p.now(), 200);
  });
  engine.Run();
}

TEST(Engine, KillUnwindsBlockedProcess) {
  Engine engine;
  bool reached_after_wait = false;
  const int pid = engine.AddProcess("victim", [&](Process& p) {
    p.WaitUntil([] { return false; });  // would deadlock without the kill
    reached_after_wait = true;
  });
  engine.ScheduleKill(pid, 300);
  engine.AddProcess("other", [&](Process& p) { p.Advance(1000); });
  engine.Run();
  EXPECT_FALSE(reached_after_wait);
  EXPECT_FALSE(engine.alive(pid));
  EXPECT_EQ(engine.state(pid), ProcState::kKilled);
}

TEST(Engine, KillHooksRun) {
  Engine engine;
  std::vector<int> killed;
  engine.AddKillHook([&](int pid) { killed.push_back(pid); });
  const int pid = engine.AddProcess("victim", [&](Process& p) { p.Advance(10'000); });
  engine.ScheduleKill(pid, 5000);
  engine.Run();
  ASSERT_EQ(killed.size(), 1u);
  EXPECT_EQ(killed[0], pid);
}

TEST(Engine, KillAfterCompletionIsNoop) {
  Engine engine;
  const int pid = engine.AddProcess("fast", [&](Process& p) { p.Advance(10); });
  engine.ScheduleKill(pid, 1'000'000);
  engine.Run();
  EXPECT_EQ(engine.state(pid), ProcState::kDone);
}

TEST(Engine, SleepUntil) {
  Engine engine;
  engine.AddProcess("p", [&](Process& p) {
    p.SleepUntil(12345);
    EXPECT_EQ(p.now(), 12345);
    p.SleepUntil(100);  // in the past: no-op
    EXPECT_EQ(p.now(), 12345);
  });
  engine.Run();
}

TEST(Engine, DeterministicTraceAcrossRuns) {
  auto run_once = [] {
    Engine engine;
    engine.EnableTrace();
    int counter = 0;
    for (int pid = 0; pid < 4; ++pid) {
      std::string name = "p";
      name += std::to_string(pid);
      engine.AddProcess(std::move(name), [&, pid](Process& p) {
        for (int i = 0; i < 10; ++i) {
          p.Advance(100 + 37 * pid);
          ++counter;
        }
      });
    }
    engine.Run();
    return engine.trace();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, ManyProcessesAllFinish) {
  Engine engine;
  int finished = 0;
  for (int pid = 0; pid < 256; ++pid) {
    std::string name = "p";
    name += std::to_string(pid);
    engine.AddProcess(std::move(name), [&, pid](Process& p) {
      for (int i = 0; i < 5; ++i) {
        p.Advance(1 + pid);
      }
      ++finished;
    });
  }
  engine.Run();
  EXPECT_EQ(finished, 256);
}

TEST(Engine, EventChainSchedulesFromEventContext) {
  Engine engine;
  std::vector<SimTime> fired;
  std::function<void()> chain = [&] {
    fired.push_back(engine.now());
    if (fired.size() < 5) {
      engine.ScheduleEvent(engine.now() + 100, chain);
    }
  };
  engine.ScheduleEvent(100, chain);
  engine.AddProcess("idle", [](Process& p) { p.Advance(1); });
  engine.Run();
  ASSERT_EQ(fired.size(), 5u);
  EXPECT_EQ(fired.back(), 500);
}

TEST(Engine, YieldDoesNotAdvanceTime) {
  Engine engine;
  engine.AddProcess("p", [&](Process& p) {
    p.Advance(42);
    p.Yield();
    EXPECT_EQ(p.now(), 42);
  });
  engine.Run();
}

TEST(Engine, DeepRecursionFitsOnAFiberStack) {
  Engine engine;
  int result = 0;
  engine.AddProcess("deep", [&](Process& p) { result = RecurseThenAdvance(p, 384); });
  engine.AddProcess("other", [](Process& p) { p.Advance(5); });
  engine.Run();
  EXPECT_EQ(result, 384);  // 384 frames x 4 KiB = 1.5 MiB of stack
  EXPECT_EQ(engine.state(0), ProcState::kDone);
}

TEST(Engine, KilledProcessRunsItsDestructorsWhileOthersContinue) {
  struct Guard {
    bool* destroyed;
    ~Guard() { *destroyed = true; }
  };
  Engine engine;
  bool destroyed = false;
  bool victim_finished = false;
  std::vector<SimTime> finished_at;
  const int victim = engine.AddProcess("victim", [&](Process& p) {
    Guard guard{&destroyed};
    for (int i = 0; i < 100; ++i) {
      p.Advance(100);
    }
    victim_finished = true;
  });
  for (int pid = 0; pid < 3; ++pid) {
    engine.AddProcess("worker" + std::to_string(pid), [&](Process& p) {
      for (int i = 0; i < 100; ++i) {
        p.Advance(100);
      }
      finished_at.push_back(p.now());
    });
  }
  engine.ScheduleKill(victim, 1000);
  engine.Run();
  EXPECT_TRUE(destroyed);
  EXPECT_FALSE(victim_finished);
  EXPECT_EQ(engine.state(victim), ProcState::kKilled);
  EXPECT_EQ(finished_at, (std::vector<SimTime>{10'000, 10'000, 10'000}));
}

TEST(Engine, EnginesRunBackToBackAndUnmapTheirStacks) {
  for (int round = 0; round < 2; ++round) {
    Engine engine;
    uintptr_t stack_addr = 0;
    bool mapped_while_running = false;
    engine.AddProcess("p", [&](Process& p) {
      // The frame address, not a local's: ASan may move locals to a fake
      // stack.
      stack_addr = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
      mapped_while_running = IsMapped(stack_addr);
      p.Advance(1);
    });
    engine.Run();
    EXPECT_EQ(engine.state(0), ProcState::kDone) << "round " << round;
    EXPECT_TRUE(mapped_while_running) << "round " << round;
    EXPECT_FALSE(IsMapped(stack_addr)) << "round " << round << ": stack still mapped";
  }
}

TEST(EngineDeathTest, YieldInsideACatchHandlerAborts) {
  EXPECT_DEATH(
      {
        Engine engine;
        engine.AddProcess("p", [](Process& p) {
          try {
            throw std::runtime_error("fault");
          } catch (const std::exception&) {
            p.Advance(1);
          }
        });
        engine.Run();
      },
      "yields inside a catch handler");
}

}  // namespace
}  // namespace malt
