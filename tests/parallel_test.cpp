// Unit tests for the thread pool and the in-process MPI-style communicator.

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <latch>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "parallel/comm.h"
#include "parallel/thread_pool.h"

namespace matgpt {
namespace {

TEST(ThreadPool, InlineModeExecutesSynchronously) {
  ThreadPool pool(0);
  int value = 0;
  pool.submit([&] { value = 7; }).get();
  EXPECT_EQ(value, 7);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 10,
                        [](std::size_t lo, std::size_t) {
                          if (lo == 0) throw Error("boom");
                        }),
      Error);
}

TEST(ThreadPool, ParallelForRunsOnCallingThread) {
  ThreadPool pool(3);
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.parallel_for(0, 64, [&](std::size_t, std::size_t) {
    std::lock_guard lock(mu);
    ids.insert(std::this_thread::get_id());
  }, 8);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u);
}

TEST(ThreadPool, ParallelForReturnsWhileEveryWorkerIsBusy) {
  // Both workers block in submitted tasks; the caller must run every chunk
  // itself instead of waiting for a helper that cannot start.
  ThreadPool pool(2);
  std::latch started(2);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::vector<std::future<void>> blockers;
  for (int i = 0; i < 2; ++i) {
    blockers.push_back(pool.submit([&started, gate] {
      started.count_down();
      gate.wait();
    }));
  }
  started.wait();
  std::vector<std::atomic<int>> hits(100);
  for (int rep = 0; rep < 3; ++rep) {
    pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    }, 10);
  }
  for (auto& h : hits) EXPECT_EQ(h.load(), 3);
  release.set_value();
  for (auto& f : blockers) f.get();
  // The helper slots left behind by the calls above are harmless.
  std::atomic<int> after{0};
  pool.parallel_for(0, 8, [&](std::size_t lo, std::size_t hi) {
    after.fetch_add(static_cast<int>(hi - lo));
  }, 8);
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, CallerExceptionWaitsForRunningHelperChunks) {
  ThreadPool pool(3);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  EXPECT_THROW(
      pool.parallel_for(0, 4, [&](std::size_t lo, std::size_t) {
        if (lo == 0) {
          // The caller's chunk: give the helpers time to claim theirs.
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(5);
          while (started.load() == 0 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          throw Error("caller chunk failed");
        }
        started.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        finished.fetch_add(1);
      }, 4),
      Error);
  EXPECT_GE(started.load(), 1);
  EXPECT_EQ(finished.load(), started.load());
}

TEST(ThreadPool, ConcurrentCallersShareOnePool) {
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr std::size_t kRange = 1000;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kRange, 0));
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int rep = 0; rep < 50; ++rep) {
        pool.parallel_for(0, kRange, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) ++hits[t][i];
        }, 16, 8);
      }
    });
  }
  for (auto& c : callers) c.join();
  for (const auto& h : hits) {
    EXPECT_TRUE(std::all_of(h.begin(), h.end(), [](int v) { return v == 50; }));
  }
}

TEST(ThreadPool, ChunkBoundsAreGrainMultiplesCoveringRangeOnce) {
  struct Case {
    std::size_t workers, begin, end, max_chunks, grain;
  };
  const Case cases[] = {{3, 0, 100, 7, 8},  {3, 5, 105, 4, 16},
                        {3, 0, 101, 13, 8}, {3, 0, 7, 4, 8},
                        {2, 3, 1000, 0, 1}, {3, 0, 50, 50, 1},
                        {0, 0, 100, 8, 8}};
  for (const Case& cs : cases) {
    ThreadPool pool(cs.workers);
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    pool.parallel_for(cs.begin, cs.end, [&](std::size_t lo, std::size_t hi) {
      std::lock_guard lock(mu);
      spans.emplace_back(lo, hi);
    }, cs.max_chunks, cs.grain);
    std::sort(spans.begin(), spans.end());
    ASSERT_FALSE(spans.empty());
    if (cs.max_chunks > 0) {
      EXPECT_LE(spans.size(), cs.max_chunks);
    }
    std::size_t at = cs.begin;
    for (const auto& [lo, hi] : spans) {
      EXPECT_EQ(lo, at) << "gap or overlap at " << lo;
      EXPECT_LT(lo, hi);
      EXPECT_EQ((lo - cs.begin) % cs.grain, 0u) << "chunk start " << lo;
      at = hi;
    }
    EXPECT_EQ(at, cs.end);
  }
}

TEST(ThreadPool, AvailableCpusFollowsAffinityMask) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  EXPECT_EQ(available_cpus(), static_cast<std::size_t>(CPU_COUNT(&mask)));
  if (CPU_COUNT(&mask) < 2) return;
  // Pin this thread to its first allowed CPU, as `taskset -c` would.
  int first = 0;
  while (!CPU_ISSET(first, &mask)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  EXPECT_EQ(available_cpus(), 1u);
  ASSERT_EQ(sched_setaffinity(0, sizeof(mask), &mask), 0);
}

TEST(Comm, WorldSizeAndRankAssignment) {
  std::vector<std::atomic<int>> seen(4);
  run_ranks(4, [&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 4);
    seen[static_cast<std::size_t>(comm.rank())].fetch_add(1);
  });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(Comm, AllreduceSum) {
  run_ranks(4, [](Communicator& comm) {
    std::vector<float> data{static_cast<float>(comm.rank() + 1), 10.0f};
    comm.allreduce(data);
    EXPECT_FLOAT_EQ(data[0], 10.0f);  // 1+2+3+4
    EXPECT_FLOAT_EQ(data[1], 40.0f);
  });
}

TEST(Comm, AllreduceMaxMin) {
  run_ranks(3, [](Communicator& comm) {
    std::vector<float> mx{static_cast<float>(comm.rank())};
    comm.allreduce(mx, ReduceOp::kMax);
    EXPECT_FLOAT_EQ(mx[0], 2.0f);
    std::vector<float> mn{static_cast<float>(comm.rank())};
    comm.allreduce(mn, ReduceOp::kMin);
    EXPECT_FLOAT_EQ(mn[0], 0.0f);
  });
}

TEST(Comm, AllreduceRepeatedUsesAreIndependent) {
  run_ranks(4, [](Communicator& comm) {
    for (int iter = 1; iter <= 5; ++iter) {
      std::vector<float> data{static_cast<float>(comm.rank() * iter)};
      comm.allreduce(data);
      EXPECT_FLOAT_EQ(data[0], static_cast<float>(6 * iter));
    }
  });
}

TEST(Comm, Allgather) {
  run_ranks(3, [](Communicator& comm) {
    std::vector<float> send{static_cast<float>(comm.rank()),
                            static_cast<float>(comm.rank() * 10)};
    std::vector<float> recv(6);
    comm.allgather(send, recv);
    const std::vector<float> expect{0, 0, 1, 10, 2, 20};
    EXPECT_EQ(recv, expect);
  });
}

TEST(Comm, ReduceScatter) {
  run_ranks(2, [](Communicator& comm) {
    // Both ranks contribute [0,1,2,3]; reduction is [0,2,4,6].
    std::vector<float> send{0, 1, 2, 3};
    std::vector<float> recv(2);
    comm.reduce_scatter(send, recv);
    if (comm.rank() == 0) {
      EXPECT_FLOAT_EQ(recv[0], 0.0f);
      EXPECT_FLOAT_EQ(recv[1], 2.0f);
    } else {
      EXPECT_FLOAT_EQ(recv[0], 4.0f);
      EXPECT_FLOAT_EQ(recv[1], 6.0f);
    }
  });
}

TEST(Comm, Broadcast) {
  run_ranks(4, [](Communicator& comm) {
    std::vector<float> data(3, comm.rank() == 2 ? 5.0f : 0.0f);
    comm.broadcast(data, /*root=*/2);
    for (float v : data) EXPECT_FLOAT_EQ(v, 5.0f);
  });
}

TEST(Comm, PointToPointRing) {
  run_ranks(4, [](Communicator& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    std::vector<float> out{static_cast<float>(comm.rank())};
    std::vector<float> in(1);
    if (comm.rank() % 2 == 0) {
      comm.send(out, next);
      comm.recv(in, prev);
    } else {
      comm.recv(in, prev);
      comm.send(out, next);
    }
    EXPECT_FLOAT_EQ(in[0], static_cast<float>(prev));
  });
}

TEST(Comm, TaggedMessagesDoNotCross) {
  run_ranks(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<float> a{1.0f}, b{2.0f};
      comm.send(a, 1, /*tag=*/7);
      comm.send(b, 1, /*tag=*/9);
    } else {
      std::vector<float> b(1), a(1);
      comm.recv(b, 0, /*tag=*/9);  // receive in reverse send order
      comm.recv(a, 0, /*tag=*/7);
      EXPECT_FLOAT_EQ(a[0], 1.0f);
      EXPECT_FLOAT_EQ(b[0], 2.0f);
    }
  });
}

TEST(Comm, SplitFormsSubgroupsWithReorderedRanks) {
  run_ranks(6, [](Communicator& comm) {
    // Even ranks form group 0, odd ranks group 1; key reverses order.
    Communicator sub = comm.split(comm.rank() % 2, -comm.rank());
    EXPECT_EQ(sub.size(), 3);
    // Highest parent rank gets child rank 0 because of the negated key.
    if (comm.rank() == 4) {
      EXPECT_EQ(sub.rank(), 0);
    }
    if (comm.rank() == 0) {
      EXPECT_EQ(sub.rank(), 2);
    }
    std::vector<float> data{1.0f};
    sub.allreduce(data);
    EXPECT_FLOAT_EQ(data[0], 3.0f);
  });
}

TEST(Comm, SplitGroupsAreIsolated) {
  run_ranks(4, [](Communicator& comm) {
    Communicator sub = comm.split(comm.rank() / 2, comm.rank());
    std::vector<float> data{static_cast<float>(comm.rank())};
    sub.allreduce(data);
    const float expect = comm.rank() < 2 ? 1.0f : 5.0f;  // 0+1 or 2+3
    EXPECT_FLOAT_EQ(data[0], expect);
  });
}

TEST(Comm, TrafficCountersAdvance) {
  run_ranks(2, [](Communicator& comm) {
    std::vector<float> data{1.0f, 2.0f};
    comm.allreduce(data);
    comm.barrier();
    EXPECT_GT(comm.bytes_reduced(), 0u);
  });
}

TEST(Comm, SingleRankCollectivesAreIdentity) {
  run_ranks(1, [](Communicator& comm) {
    std::vector<float> data{3.5f};
    comm.allreduce(data);
    EXPECT_FLOAT_EQ(data[0], 3.5f);
    comm.broadcast(data, 0);
    EXPECT_FLOAT_EQ(data[0], 3.5f);
    comm.barrier();
  });
}

TEST(Comm, AllreduceDetMatchesOrderedDoubleSum) {
  // The contract: element i becomes fl(sum_r double(x_r[i])) in ascending
  // rank order with ONE final rounding. Pin it against a serial reference.
  constexpr int kRanks = 4;
  constexpr std::size_t kElems = 7;
  auto contribution = [](int rank, std::size_t i) {
    return 0.1f * static_cast<float>(rank + 1) -
           0.37f * static_cast<float>(i) +
           static_cast<float>(rank * 7 + static_cast<int>(i) * 3) * 1e-3f;
  };
  std::vector<float> expected(kElems);
  for (std::size_t i = 0; i < kElems; ++i) {
    double acc = 0.0;
    for (int r = 0; r < kRanks; ++r) {
      acc += static_cast<double>(contribution(r, i));
    }
    expected[i] = static_cast<float>(acc);
  }
  run_ranks(kRanks, [&](Communicator& comm) {
    std::vector<float> data(kElems);
    for (std::size_t i = 0; i < kElems; ++i) {
      data[i] = contribution(comm.rank(), i);
    }
    comm.allreduce_det(data);
    for (std::size_t i = 0; i < kElems; ++i) {
      const std::uint32_t got = std::bit_cast<std::uint32_t>(data[i]);
      const std::uint32_t want = std::bit_cast<std::uint32_t>(expected[i]);
      EXPECT_EQ(got, want) << "elem " << i;
    }
  });
}

TEST(Comm, AllreduceDetIsArrivalOrderInvariant) {
  // Repeat the same reduction many times with rank-skewed arrival (each
  // rank burns a different amount of work first). allreduce() would
  // accumulate in whatever order threads take the lock; allreduce_det must
  // produce one bit pattern every time.
  constexpr int kRanks = 4;
  constexpr int kIters = 64;
  std::mutex mu;
  std::vector<std::vector<float>> results(kIters);
  run_ranks(kRanks, [&](Communicator& comm) {
    for (int it = 0; it < kIters; ++it) {
      volatile float sink = 0.0f;
      const int spin = ((comm.rank() + it) % kRanks) * 500;
      for (int i = 0; i < spin; ++i) sink = sink + 1.0f;
      std::vector<float> data{0.1f * static_cast<float>(comm.rank() + 1),
                              -2.7f, 3.14159f * comm.rank(), sink * 0.0f + 7e-3f};
      comm.allreduce_det(data);
      if (comm.rank() == 0) {
        std::lock_guard lock(mu);
        results[static_cast<std::size_t>(it)] = data;
      }
      comm.barrier();
    }
  });
  for (int it = 1; it < kIters; ++it) {
    ASSERT_EQ(results[0].size(), results[static_cast<std::size_t>(it)].size());
    for (std::size_t i = 0; i < results[0].size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(results[0][i]),
                std::bit_cast<std::uint32_t>(
                    results[static_cast<std::size_t>(it)][i]))
          << "iteration " << it << " elem " << i;
    }
  }
}

TEST(Comm, AllreduceDetIsRankCountInvariantOnExactSplits) {
  // Split a fixed vector across N ranks as base/N (exact for power-of-two
  // N: a float divided by 2^k only shifts its exponent, and the partial
  // double sums of <= 8 copies round nowhere). allreduce_det must then
  // reconstruct the SAME bit pattern for every N — the property that makes
  // TP=N the same model as TP=1.
  const std::vector<float> base{1.5f, -0.1f, 3.25f, 0.007812f, -42.0f};
  for (int n : {1, 2, 4, 8}) {
    std::mutex mu;
    std::vector<float> result;
    run_ranks(n, [&](Communicator& comm) {
      std::vector<float> data(base.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        data[i] = base[i] / static_cast<float>(n);
      }
      comm.allreduce_det(data);
      if (comm.rank() == 0) {
        std::lock_guard lock(mu);
        result = data;
      }
    });
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(result[i]),
                std::bit_cast<std::uint32_t>(base[i]))
          << "n=" << n << " elem " << i;
    }
  }
}

TEST(Comm, AllgatherColsInterleavesColumnSlices) {
  // Each rank sends a [2, 2] slice; rank r's columns must land at column
  // offset r*2 of the [2, 6] result on every rank.
  run_ranks(3, [](Communicator& comm) {
    constexpr std::size_t kRows = 2, kW = 2;
    std::vector<float> send(kRows * kW);
    for (std::size_t row = 0; row < kRows; ++row) {
      for (std::size_t col = 0; col < kW; ++col) {
        send[row * kW + col] =
            static_cast<float>(comm.rank() * 100 + row * 10 + col);
      }
    }
    std::vector<float> recv(kRows * kW * 3);
    comm.allgather_cols(send, recv, kRows);
    for (std::size_t row = 0; row < kRows; ++row) {
      for (int r = 0; r < 3; ++r) {
        for (std::size_t col = 0; col < kW; ++col) {
          EXPECT_FLOAT_EQ(recv[row * kW * 3 + r * kW + col],
                          static_cast<float>(r * 100 + row * 10 + col))
              << "row " << row << " rank " << r << " col " << col;
        }
      }
    }
  });
}

TEST(Comm, ConcurrentSplitGroupsKeepSeparateScratch) {
  // Two sub-groups cut from one parent stay live simultaneously and
  // interleave collectives. Each split's GroupState owns its own scratch
  // and det slots, so neither group can see the other's partial sums.
  run_ranks(4, [](Communicator& comm) {
    Communicator pair = comm.split(comm.rank() / 2, comm.rank());   // {0,1},{2,3}
    Communicator stripe = comm.split(comm.rank() % 2, comm.rank()); // {0,2},{1,3}
    for (int it = 0; it < 16; ++it) {
      std::vector<float> a{static_cast<float>(comm.rank() + 1)};
      std::vector<float> b{static_cast<float>((comm.rank() + 1) * 10)};
      pair.allreduce_det(a);
      stripe.allreduce_det(b);
      const float want_pair = comm.rank() < 2 ? 3.0f : 7.0f;    // 1+2 / 3+4
      const float want_stripe =
          comm.rank() % 2 == 0 ? 40.0f : 60.0f;                 // 10+30 / 20+40
      EXPECT_FLOAT_EQ(a[0], want_pair) << "iter " << it;
      EXPECT_FLOAT_EQ(b[0], want_stripe) << "iter " << it;
      std::vector<float> g(2);
      pair.allgather_cols(std::vector<float>{static_cast<float>(comm.rank())},
                          g, 1);
      EXPECT_FLOAT_EQ(g[0] + g[1], comm.rank() < 2 ? 1.0f : 5.0f);
    }
  });
}

TEST(Comm, RankExceptionPropagatesToLauncher) {
  EXPECT_THROW(run_ranks(2,
                         [](Communicator& comm) {
                           if (comm.rank() == 1) throw Error("rank failure");
                         }),
               Error);
}

}  // namespace
}  // namespace matgpt
