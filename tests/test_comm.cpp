// Tests for the message-passing runtime: point-to-point semantics,
// every collective, error propagation, and parameterized stress across
// world sizes (including non-powers of two, which exercise the dissemination
// barrier's wraparound).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "comm/async.hpp"
#include "comm/comm.hpp"
#include "comm/fault.hpp"
#include "comm/world.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"

namespace dc = dlouvain::comm;
using dlouvain::Rank;

TEST(Comm, SingleRankWorldRunsInline) {
  std::atomic<int> calls{0};
  dc::run(1, [&](dc::Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(Comm, SendRecvRoundTrip) {
  dc::run(2, [](dc::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 7, std::vector<int>{1, 2, 3});
      const auto back = comm.recv<int>(1, 8);
      EXPECT_EQ(back, (std::vector<int>{4, 5}));
    } else {
      const auto data = comm.recv<int>(0, 7);
      EXPECT_EQ(data, (std::vector<int>{1, 2, 3}));
      comm.send<int>(0, 8, std::vector<int>{4, 5});
    }
  });
}

TEST(Comm, EmptyMessagesAreDeliverable) {
  dc::run(2, [](dc::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 1, std::vector<int>{});
    } else {
      EXPECT_TRUE(comm.recv<int>(0, 1).empty());
    }
  });
}

TEST(Comm, TagMatchingSelectsCorrectMessage) {
  // Send tag-B first, then tag-A; receiver asks for A first. Matching must
  // pick by tag, not arrival order.
  dc::run(2, [](dc::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 20, 200);
      comm.send_value<int>(1, 10, 100);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 10), 100);
      EXPECT_EQ(comm.recv_value<int>(0, 20), 200);
    }
  });
}

TEST(Comm, SameTagIsFifoPerPair) {
  dc::run(2, [](dc::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) comm.send_value<int>(1, 3, i);
    } else {
      for (int i = 0; i < 50; ++i) EXPECT_EQ(comm.recv_value<int>(0, 3), i);
    }
  });
}

TEST(Comm, SendToInvalidRankThrows) {
  EXPECT_THROW(dc::run(2,
                       [](dc::Comm& comm) {
                         if (comm.rank() == 0) comm.send_value<int>(5, 0, 1);
                         else comm.barrier();  // will unwind via WorldAborted
                       }),
               std::out_of_range);
}

TEST(Comm, ExceptionInOneRankPropagates) {
  EXPECT_THROW(dc::run(4,
                       [](dc::Comm& comm) {
                         if (comm.rank() == 2) throw std::runtime_error("boom");
                         // Other ranks block; they must be released, not hang.
                         (void)comm.recv_bytes((comm.rank() + 1) % 4, 99);
                       }),
               std::runtime_error);
}

TEST(Comm, MetricsCountMessagesAndBytes) {
  dc::RunOptions options;
  options.metrics = std::make_shared<dlouvain::util::MetricsRegistry>(2);
  dc::run(
      2,
      [](dc::Comm& comm) {
        if (comm.rank() == 0) comm.send<int>(1, 0, std::vector<int>{1, 2, 3, 4});
        else (void)comm.recv<int>(0, 0);
      },
      options);
  const auto totals = options.metrics->total();
  EXPECT_EQ(totals[dlouvain::util::Counter::kMessages], 1);
  EXPECT_EQ(totals[dlouvain::util::Counter::kBytes], 16);
}

class CommCollectives : public ::testing::TestWithParam<int> {};

TEST_P(CommCollectives, BarrierCompletes) {
  const int p = GetParam();
  std::atomic<int> arrived{0};
  dc::run(p, [&](dc::Comm& comm) {
    for (int round = 0; round < 5; ++round) comm.barrier();
    ++arrived;
  });
  EXPECT_EQ(arrived.load(), p);
}

TEST_P(CommCollectives, BarrierIsASyncPoint) {
  const int p = GetParam();
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  dc::run(p, [&](dc::Comm& comm) {
    ++before;
    comm.barrier();
    if (before.load() != p) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST_P(CommCollectives, BroadcastDistributesRootBuffer) {
  const int p = GetParam();
  dc::run(p, [](dc::Comm& comm) {
    std::vector<long> data;
    if (comm.rank() == 0) data = {10, 20, 30};
    const auto out = comm.broadcast(std::move(data), 0);
    EXPECT_EQ(out, (std::vector<long>{10, 20, 30}));
  });
}

TEST_P(CommCollectives, BroadcastFromNonZeroRoot) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  dc::run(p, [](dc::Comm& comm) {
    std::vector<int> data;
    if (comm.rank() == 1) data = {7};
    EXPECT_EQ(comm.broadcast(std::move(data), 1), std::vector<int>{7});
  });
}

TEST_P(CommCollectives, AllgatherOrdersByRank) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    const auto all = comm.allgather<int>(comm.rank() * 10);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) EXPECT_EQ(all[r], r * 10);
  });
}

TEST_P(CommCollectives, AllgathervConcatenatesVariableLengths) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    // Rank r contributes r copies of r.
    std::vector<int> mine(comm.rank(), comm.rank());
    std::vector<std::size_t> counts;
    const auto all = comm.allgatherv<int>(mine, &counts);
    std::vector<int> expected;
    for (int r = 0; r < p; ++r) expected.insert(expected.end(), r, r);
    EXPECT_EQ(all, expected);
    for (int r = 0; r < p; ++r) EXPECT_EQ(counts[r], static_cast<std::size_t>(r));
  });
}

TEST_P(CommCollectives, GathervCollectsAtRootOnly) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    std::vector<int> mine{comm.rank(), comm.rank() + 100};
    const auto all = comm.gatherv<int>(mine, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(2 * p));
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(all[2 * r], r);
        EXPECT_EQ(all[2 * r + 1], r + 100);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CommCollectives, AllreduceSumMatchesClosedForm) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    EXPECT_EQ(comm.allreduce_sum<long>(comm.rank() + 1), static_cast<long>(p) * (p + 1) / 2);
  });
}

TEST_P(CommCollectives, AllreduceSumIsBitwiseIdenticalAcrossRanks) {
  const int p = GetParam();
  // Adversarial doubles: different magnitudes per rank. Every rank must get
  // the exact same bits because folds run in rank order everywhere.
  std::vector<double> results(p);
  dc::run(p, [&](dc::Comm& comm) {
    const double mine = 1.0 / (comm.rank() + 3.0) * 1e10;
    results[comm.rank()] = comm.allreduce_sum(mine);
  });
  for (int r = 1; r < p; ++r) EXPECT_EQ(results[0], results[r]);
}

TEST_P(CommCollectives, AllreduceMinMax) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    EXPECT_EQ(comm.allreduce_max<int>(comm.rank()), p - 1);
  });
}

TEST_P(CommCollectives, AllreduceLand) {
  // MPI_LAND through the generic allreduce: a termination vote.
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    const auto land = [&comm](bool vote) {
      return comm.allreduce(vote ? 1 : 0, [](int a, int b) { return a & b; }) != 0;
    };
    EXPECT_TRUE(land(true));
    // Rank p-1 votes false, so the conjunction is always false.
    EXPECT_FALSE(land(comm.rank() != p - 1));
  });
}

TEST_P(CommCollectives, AllreduceSumVecIsElementwise) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    std::vector<long> mine{comm.rank(), 1, 2 * comm.rank()};
    const auto out = comm.allreduce_sum_vec(mine);
    const long ranksum = static_cast<long>(p) * (p - 1) / 2;
    EXPECT_EQ(out, (std::vector<long>{ranksum, p, 2 * ranksum}));
  });
}

TEST_P(CommCollectives, ExscanMatchesPrefixSums) {
  const int p = GetParam();
  dc::run(p, [](dc::Comm& comm) {
    // Rank r contributes r+1; exscan result is sum 1..r.
    const long r = comm.rank();
    EXPECT_EQ(comm.exscan_sum<long>(r + 1), r * (r + 1) / 2);
  });
}

TEST_P(CommCollectives, AlltoallvRoutesPersonalizedBuffers) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    // Rank r sends {r*100+d} repeated (d+1) times to rank d.
    std::vector<std::vector<int>> outbox(p);
    for (int d = 0; d < p; ++d) outbox[d].assign(d + 1, comm.rank() * 100 + d);
    const auto inbox = comm.alltoallv<int>(std::move(outbox));
    ASSERT_EQ(inbox.size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(inbox[s].size(), static_cast<std::size_t>(comm.rank() + 1));
      for (int x : inbox[s]) EXPECT_EQ(x, s * 100 + comm.rank());
    }
  });
}

TEST_P(CommCollectives, AlltoallExchangesSingleElements) {
  // MPI_Alltoall's pattern, one element to and from each rank, as alltoallv
  // with one-element buffers.
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    std::vector<std::vector<int>> outbox(p);
    for (int d = 0; d < p; ++d) outbox[d] = {comm.rank() * p + d};
    const auto in = comm.alltoallv<int>(std::move(outbox));
    for (int s = 0; s < p; ++s) EXPECT_EQ(in[s], std::vector<int>{s * p + comm.rank()});
  });
}

TEST_P(CommCollectives, BackToBackCollectivesDontCrossMatch) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    for (int round = 0; round < 20; ++round) {
      EXPECT_EQ(comm.allreduce_sum<int>(round), round * p);
      const auto all = comm.allgather<int>(comm.rank() + round);
      for (int r = 0; r < p; ++r) EXPECT_EQ(all[r], r + round);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CommCollectives,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

TEST(Comm, ManyRanksStress) {
  // 32 rank-threads doing mixed traffic; mostly a deadlock/interleaving test.
  dc::run(32, [](dc::Comm& comm) {
    const int p = comm.size();
    const Rank next = (comm.rank() + 1) % p;
    const Rank prev = (comm.rank() - 1 + p) % p;
    for (int i = 0; i < 10; ++i) {
      comm.send_value<int>(next, 5, comm.rank() * 1000 + i);
      EXPECT_EQ(comm.recv_value<int>(prev, 5), prev * 1000 + i);
      comm.barrier();
    }
  });
}

// ---- Tree broadcast ----------------------------------------------------------

class BroadcastTree : public ::testing::TestWithParam<int> {};

TEST_P(BroadcastTree, EveryRootEveryWorldSize) {
  const int p = GetParam();
  dc::run(p, [p](dc::Comm& comm) {
    for (dlouvain::Rank root = 0; root < p; ++root) {
      std::vector<long> data;
      if (comm.rank() == root) data = {root * 100L, root * 100L + 1};
      const auto out = comm.broadcast(std::move(data), root);
      EXPECT_EQ(out, (std::vector<long>{root * 100L, root * 100L + 1}));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, BroadcastTree, ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(Comm, TagOutsideRangeThrows) {
  dc::run(1, [](dc::Comm& comm) {
    EXPECT_THROW(comm.send_value<int>(0, 1 << 20, 1), std::out_of_range);
  });
}

// ---- Fault layer: timeouts, checksums, duplicate suppression, delays -------

TEST(FaultLayer, HungReceiveThrowsTimeoutWithDiagnostic) {
  // Rank 0 waits for a message rank 1 never sends: a classic deadlock. With
  // a deadline configured, the blocked receive must throw CommTimeout whose
  // message names the blocked (src, tag) instead of hanging forever.
  dc::RunOptions options;
  options.timeout_seconds = 0.2;
  try {
    dc::run(
        2,
        [](dc::Comm& comm) {
          if (comm.rank() == 0) (void)comm.recv_value<int>(1, 42);
          else (void)comm.recv_value<int>(0, 43);  // also stuck, also reported
        },
        options);
    FAIL() << "expected CommTimeout";
  } catch (const dc::CommTimeout& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("blocked on"), std::string::npos) << what;
    EXPECT_NE(what.find("comm timeout"), std::string::npos) << what;
  }
}

TEST(FaultLayer, TimeoutDoesNotFireOnHealthyTraffic) {
  dc::RunOptions options;
  options.timeout_seconds = 5.0;
  options.metrics = std::make_shared<dlouvain::util::MetricsRegistry>(3);
  dc::run(
      3,
      [](dc::Comm& comm) {
        for (int round = 0; round < 20; ++round) {
          comm.barrier();
          (void)comm.allreduce_sum<int>(comm.rank());
        }
      },
      options);
  EXPECT_GT(options.metrics->total()[dlouvain::util::Counter::kMessages], 0);
}

TEST(FaultLayer, DuplicatedMessagesAreAbsorbed) {
  // Duplicate EVERY message: results must be unchanged (sequence numbers
  // drop the copies) and the drop counter must show it happened. A repeated
  // stream on a fixed tag interleaves duplicates with later originals, so
  // the receiver actually encounters (and drops) them; only the final
  // message's duplicate can linger undelivered at shutdown.
  constexpr int kRounds = 25;
  dc::RunOptions options;
  options.faults = std::make_shared<dc::FaultInjector>(dc::FaultPlan().duplicate(1.0));
  options.metrics = std::make_shared<dlouvain::util::MetricsRegistry>(4);
  std::vector<long> sums(4, -1);
  dc::run(
      4,
      [&](dc::Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < kRounds; ++i) comm.send_value<int>(1, 7, i);
        } else if (comm.rank() == 1) {
          for (int i = 0; i < kRounds; ++i)
            ASSERT_EQ(comm.recv_value<int>(0, 7), i);
        }
        const auto sum = comm.allreduce_sum<long>(comm.rank() + 1);
        sums[static_cast<std::size_t>(comm.rank())] = sum;
      },
      options);
  EXPECT_EQ(sums, (std::vector<long>{10, 10, 10, 10}));
  const auto dropped =
      options.metrics->total()[dlouvain::util::Counter::kDuplicatesDropped];
  EXPECT_GE(dropped, kRounds - 1);
  EXPECT_LE(dropped, options.faults->duplicated.load());
}

TEST(FaultLayer, CorruptedPayloadIsDetected) {
  // Corrupt every data-carrying message: the receiver's CRC check must
  // surface CorruptMessage instead of silently delivering garbage.
  dc::RunOptions options;
  options.faults = std::make_shared<dc::FaultInjector>(dc::FaultPlan().corrupt(1.0));
  EXPECT_THROW(dc::run(
                   2,
                   [](dc::Comm& comm) {
                     if (comm.rank() == 0) comm.send_value<int>(1, 5, 12345);
                     else (void)comm.recv_value<int>(0, 5);
                   },
                   options),
               dc::CorruptMessage);
}

TEST(FaultLayer, PayloadChecksumOnlyOnAnInjectedWire) {
  // The CRC sees only bytes changed while a message is queued, and in
  // process only a message-fault injector changes them: a clean wire (no
  // injector, or crash triggers only) neither stamps nor verifies it.
  const auto round_trip = [](dc::FaultInjector* injector) {
    dc::Mailbox box(nullptr, 0, 0, injector);
    dc::Message msg;
    msg.src = 1;
    msg.tag = 4;
    msg.payload = {std::byte{0x12}, std::byte{0x34}, std::byte{0x56}, std::byte{0x78}};
    box.put(msg);
    const dc::Message got = box.get(1, 4);
    EXPECT_EQ(got.payload, msg.payload);
    return got;
  };
  EXPECT_EQ(round_trip(nullptr).crc, 0u);
  dc::FaultInjector crash_only(dc::FaultPlan().crash(0, 1).kill(1, 2));
  ASSERT_FALSE(crash_only.injects_messages());
  EXPECT_EQ(round_trip(&crash_only).crc, 0u);

  dc::FaultInjector duplicating(dc::FaultPlan().duplicate(1.0));
  const dc::Message got = round_trip(&duplicating);
  EXPECT_NE(got.crc, 0u);
  EXPECT_EQ(got.crc, dlouvain::util::crc32(got.payload));
  EXPECT_GT(duplicating.duplicated.load(), 0);
}

TEST(FaultLayer, DelayedDeliveryPreservesResultsAndFifo) {
  // Delay half of all messages (keyed deterministically): per-stream FIFO
  // must hold and every collective must produce the exact same answers.
  dc::RunOptions options;
  options.faults =
      std::make_shared<dc::FaultInjector>(dc::FaultPlan().with_seed(99).delay(0.5, 1.0));
  std::vector<std::vector<int>> gathered(3);
  dc::run(
      3,
      [&](dc::Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < 30; ++i) comm.send_value<int>(1, 3, i);
        } else if (comm.rank() == 1) {
          for (int i = 0; i < 30; ++i) EXPECT_EQ(comm.recv_value<int>(0, 3), i);
        }
        gathered[static_cast<std::size_t>(comm.rank())] =
            comm.allgather(static_cast<int>(comm.rank() * 10));
      },
      options);
  for (const auto& g : gathered) EXPECT_EQ(g, (std::vector<int>{0, 10, 20}));
  EXPECT_GT(options.faults->delayed.load(), 0);
}

TEST(FaultLayer, InjectedCrashFiresOnceAndDeterministically) {
  auto injector = std::make_shared<dc::FaultInjector>(dc::FaultPlan().crash(1, 2, 0));
  dc::RunOptions options;
  options.faults = injector;
  EXPECT_THROW(dc::run(
                   2,
                   [](dc::Comm& comm) { comm.fault_point(2, 0); },
                   options),
               dc::RankCrashed);
  EXPECT_EQ(injector->crashes_fired.load(), 1);
  // One-shot: the same injector lets a restarted attempt pass the trigger.
  dc::run(
      2, [](dc::Comm& comm) { comm.fault_point(2, 0); }, options);
  EXPECT_EQ(injector->crashes_fired.load(), 1);
}

TEST(FaultLayer, FateIsAFunctionOfTheSeed) {
  // Same plan seed -> same set of delayed messages, run after run.
  const auto count_delays = [] {
    dc::RunOptions options;
    options.faults =
        std::make_shared<dc::FaultInjector>(dc::FaultPlan().with_seed(7).delay(0.3, 0.1));
    dc::run(
        2,
        [](dc::Comm& comm) {
          if (comm.rank() == 0) {
            for (int i = 0; i < 100; ++i) comm.send_value<int>(1, 9, i);
          } else {
            for (int i = 0; i < 100; ++i) (void)comm.recv_value<int>(0, 9);
          }
        },
        options);
    return options.faults->delayed.load();
  };
  const auto first = count_delays();
  EXPECT_GT(first, 0);
  EXPECT_LT(first, 100);
  EXPECT_EQ(first, count_delays());
}

// ---- Rung 1: link-level ARQ (retransmit with backoff) ----------------------

TEST(ArqLayer, LostMessagesAreRepairedByRetransmit) {
  // Drop a quarter of all messages on a long single-stream run. With a
  // retransmit budget, every loss must be repaired transparently: the
  // receiver sees the full sequence in FIFO order, no exception, and the
  // NACK/retransmit counters show the repair happened.
  constexpr int kRounds = 100;
  dc::RunOptions options;
  options.retransmit_max = 8;
  options.retransmit_backoff_ms = 0.2;
  options.metrics = std::make_shared<dlouvain::util::MetricsRegistry>(2);
  options.faults =
      std::make_shared<dc::FaultInjector>(dc::FaultPlan().with_seed(11).lose(0.25));
  dc::run(
      2,
      [](dc::Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < kRounds; ++i) comm.send_value<int>(1, 7, i);
          (void)comm.recv_value<int>(1, 8);  // hold the world open for repairs
        } else {
          for (int i = 0; i < kRounds; ++i)
            ASSERT_EQ(comm.recv_value<int>(0, 7), i);
          comm.send_value<int>(0, 8, 1);
        }
      },
      options);
  const auto losses = options.faults->lost.load();
  EXPECT_GT(losses, 0);
  const auto totals = options.metrics->total();
  using dlouvain::util::Counter;
  const auto at = [&](Counter c) {
    return totals.values[static_cast<std::size_t>(c)];
  };
  EXPECT_GE(at(Counter::kArqNacks), losses);
  EXPECT_GE(at(Counter::kArqRetransmits), 1);
  EXPECT_EQ(at(Counter::kArqEscalations), 0);
}

TEST(ArqLayer, CorruptedPayloadIsRepairedByRetransmit) {
  // Same wire as FaultLayer.CorruptedPayloadIsDetected, but with ARQ on: the
  // CRC mismatch becomes a NACK instead of a CorruptMessage, and the clean
  // retained copy is delivered.
  dc::RunOptions options;
  // 10% corruption: each retransmission re-draws its fate, so an 8-attempt
  // budget leaves no realistic path to escalation (0.1^8) while still
  // corrupting (and repairing) several originals on a 50-message stream.
  options.retransmit_max = 8;
  options.retransmit_backoff_ms = 0.2;
  options.faults =
      std::make_shared<dc::FaultInjector>(dc::FaultPlan().with_seed(3).corrupt(0.1));
  dc::run(
      2,
      [](dc::Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < 50; ++i) comm.send_value<int>(1, 5, 1000 + i);
          (void)comm.recv_value<int>(1, 6);
        } else {
          for (int i = 0; i < 50; ++i)
            ASSERT_EQ(comm.recv_value<int>(0, 5), 1000 + i);
          comm.send_value<int>(0, 6, 1);
        }
      },
      options);
}

TEST(ArqLayer, LostMessageWithoutArqThrowsGapDiagnostic) {
  // No retransmit budget: a sequence gap is unrecoverable, and the receiver
  // must say exactly which stream lost which message.
  dc::RunOptions options;
  options.faults =
      std::make_shared<dc::FaultInjector>(dc::FaultPlan().with_seed(11).lose(0.25));
  try {
    dc::run(
        2,
        [](dc::Comm& comm) {
          if (comm.rank() == 0) {
            for (int i = 0; i < 50; ++i) comm.send_value<int>(1, 7, i);
          } else {
            for (int i = 0; i < 50; ++i) (void)comm.recv_value<int>(0, 7);
          }
        },
        options);
    FAIL() << "expected CommFailure";
  } catch (const dc::CommFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lost message in stream"), std::string::npos) << what;
    EXPECT_NE(what.find("expected seq"), std::string::npos) << what;
  }
}

TEST(ArqLayer, ExhaustedRetransmitBudgetEscalates) {
  // Lose EVERY copy, originals and retransmits alike: after the budget is
  // spent the link must escalate with a CommFailure naming the retry count
  // -- rung 1 handing the fault up the ladder instead of spinning forever.
  dc::RunOptions options;
  options.retransmit_max = 3;
  options.retransmit_backoff_ms = 0.1;
  options.faults = std::make_shared<dc::FaultInjector>(dc::FaultPlan().lose(1.0));
  try {
    dc::run(
        2,
        [](dc::Comm& comm) {
          if (comm.rank() == 0) comm.send_value<int>(1, 7, 42);
          else (void)comm.recv_value<int>(0, 7);
        },
        options);
    FAIL() << "expected CommFailure";
  } catch (const dc::CommFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("retransmit budget exhausted"), std::string::npos) << what;
    EXPECT_NE(what.find("3"), std::string::npos) << what;
  }
}

TEST(ArqLayer, RetransmitPreservesDeterminism) {
  // The repaired wire must carry the exact same bytes in the exact same
  // per-stream order as a clean one: run the same traffic with and without
  // loss+ARQ and compare everything received.
  const auto collect = [](double lose) {
    dc::RunOptions options;
    if (lose > 0) {
      options.retransmit_max = 8;
      options.retransmit_backoff_ms = 0.1;
      options.faults =
          std::make_shared<dc::FaultInjector>(dc::FaultPlan().with_seed(4).lose(lose));
    }
    std::vector<std::vector<int>> got(3);
    dc::run(
        3,
        [&](dc::Comm& comm) {
          const Rank next = (comm.rank() + 1) % 3;
          const Rank prev = (comm.rank() + 2) % 3;
          for (int i = 0; i < 40; ++i) {
            comm.send_value<int>(next, 9, comm.rank() * 100 + i);
            got[static_cast<std::size_t>(comm.rank())].push_back(
                comm.recv_value<int>(prev, 9));
          }
        },
        options);
    return got;
  };
  EXPECT_EQ(collect(0.0), collect(0.2));
}

// ---- Rung 2: heartbeat lane (slow-vs-dead verdicts) ------------------------

TEST(HeartbeatLane, SlowWorldGetsExtensionsNotTimeout) {
  // Rank 0 waits for a message that arrives well past its deadline, but the
  // rest of the world keeps beating (rank 1 drip-feeds rank 2). The verdict
  // must be "slow, not dead": extend the deadline and deliver, no throw.
  dc::RunOptions options;
  options.timeout_seconds = 0.1;
  options.metrics = std::make_shared<dlouvain::util::MetricsRegistry>(3);
  dc::run(
      3,
      [](dc::Comm& comm) {
        if (comm.rank() == 0) {
          EXPECT_EQ(comm.recv_value<int>(1, 1), 42);
        } else if (comm.rank() == 1) {
          for (int i = 0; i < 5; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(40));
            comm.send_value<int>(2, 2, i);  // background progress = beats
          }
          comm.send_value<int>(0, 1, 42);  // ~2x the deadline late
        } else {
          for (int i = 0; i < 5; ++i) (void)comm.recv_value<int>(1, 2);
        }
      },
      options);
  using dlouvain::util::Counter;
  EXPECT_GE(options.metrics->total()
                .values[static_cast<std::size_t>(Counter::kHeartbeatExtensions)],
            1);
}

TEST(HeartbeatLane, PermanentDeathYieldsRankDeadVerdict) {
  // A kill() trigger declares the rank dead in the heartbeat lane and throws
  // RankDead -- the typed verdict a recovery driver needs for rung 3. It
  // re-fires on a second attempt (dead hardware stays dead) until retired.
  auto injector = std::make_shared<dc::FaultInjector>(dc::FaultPlan().kill(1, 2));
  dc::RunOptions options;
  options.faults = injector;
  const auto attempt = [&] {
    dc::run(
        2, [](dc::Comm& comm) { comm.fault_point(2, 0); }, options);
  };
  for (int i = 0; i < 2; ++i) {
    try {
      attempt();
      FAIL() << "expected RankDead, attempt " << i;
    } catch (const dc::RankDead& e) {
      EXPECT_EQ(e.rank, 1);
      EXPECT_NE(std::string(e.what()).find("permanent death"), std::string::npos);
    }
  }
  EXPECT_EQ(injector->crashes_fired.load(), 2);
  injector->retire(1);
  attempt();  // the shrink retired the trigger: survivors proceed
  EXPECT_EQ(injector->crashes_fired.load(), 2);
}

TEST(HeartbeatLane, BlockedPeerGetsRankDeadNotTimeout) {
  // Rank 1 dies permanently while rank 0 sits in a deadline-bounded receive:
  // the expiry must convert into RankDead (naming the corpse), not a generic
  // CommTimeout.
  dc::RunOptions options;
  options.timeout_seconds = 0.15;
  options.faults = std::make_shared<dc::FaultInjector>(dc::FaultPlan().kill(1, 0));
  try {
    dc::run(
        2,
        [](dc::Comm& comm) {
          if (comm.rank() == 1) comm.fault_point(0, 0);
          (void)comm.recv_value<int>(1 - comm.rank(), 3);
        },
        options);
    FAIL() << "expected RankDead";
  } catch (const dc::RankDead& e) {
    EXPECT_EQ(e.rank, 1);
  }
}

TEST(FaultLayer, TimeoutReportNamesEveryBlockedRankWithHandlesInFlight) {
  // The overlap-on failure mode: every rank has posted a nonblocking
  // ghost-exchange-style receive (handle in flight) for a message that never
  // comes, while one real message lands at each rank and is left undrained.
  // The whole-world CommTimeout diagnostic must name every blocked rank and
  // the pending depth of the undrained streams.
  dc::RunOptions options;
  options.timeout_seconds = 0.25;
  try {
    dc::run(
        3,
        [](dc::Comm& comm) {
          comm.send_value<int>((comm.rank() + 1) % 3, 7, comm.rank());
          auto pending = comm.irecv((comm.rank() + 2) % 3, 9);  // never sent
          pending.wait();  // blocks with the handle in flight
        },
        options);
    FAIL() << "expected CommTimeout";
  } catch (const dc::CommTimeout& e) {
    // Every rank is named; the reporter's own line carries both halves of
    // "who is stuck on whom": the blocked (src, tag) want and the x1 depth
    // of the stream that landed and was never drained. (Tags are wire tags
    // -- offset-packed -- so only the structure is asserted, not values.)
    const std::string what = e.what();
    for (const char* frag :
         {"rank 0", "rank 1", "rank 2", "blocked on (src=", "]x1"}) {
      EXPECT_NE(what.find(frag), std::string::npos)
          << "missing '" << frag << "' in:\n" << what;
    }
  }
}
