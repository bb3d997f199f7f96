// Tests for the thread-rendezvous communicator and P2P channels.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "comm/channel.h"
#include "comm/device_group.h"
#include "common/error.h"
#include "fault/abort_token.h"
#include "tensor/tensor_ops.h"

namespace vocab {
namespace {

/// Run `fn(rank)` on `world` threads, rethrowing the first exception.
void run_ranks(int world, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

TEST(DeviceGroup, AllReduceSum) {
  DeviceGroup group(4);
  run_ranks(4, [&](int rank) {
    Tensor t({3}, static_cast<float>(rank + 1));
    group.all_reduce(rank, t, ReduceOp::Sum, "sum");
    for (std::int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(t.at(i), 10.0f);
  });
  EXPECT_EQ(group.completed_collectives(), 1u);
}

TEST(DeviceGroup, AllReduceMax) {
  DeviceGroup group(3);
  run_ranks(3, [&](int rank) {
    Tensor t({2}, std::vector<float>{static_cast<float>(rank), -static_cast<float>(rank)});
    group.all_reduce(rank, t, ReduceOp::Max, "max");
    EXPECT_FLOAT_EQ(t.at(0), 2.0f);
    EXPECT_FLOAT_EQ(t.at(1), 0.0f);
  });
}

TEST(DeviceGroup, ReduceDeliversOnlyToRoot) {
  DeviceGroup group(4);
  run_ranks(4, [&](int rank) {
    Tensor t({2}, 1.0f);
    group.reduce(rank, /*root=*/2, t, ReduceOp::Sum, "reduce");
    if (rank == 2) {
      EXPECT_FLOAT_EQ(t.at(0), 4.0f);
    } else {
      EXPECT_FLOAT_EQ(t.at(0), 1.0f);  // non-root buffers untouched
    }
  });
}

TEST(DeviceGroup, BroadcastAdoptsRootShapeAndValues) {
  DeviceGroup group(3);
  run_ranks(3, [&](int rank) {
    Tensor t;
    if (rank == 1) t = Tensor({2, 2}, 7.0f);
    group.broadcast(rank, /*root=*/1, t, "bcast");
    ASSERT_EQ(t.rank(), 2);
    EXPECT_FLOAT_EQ(t.at(1, 1), 7.0f);
  });
}

TEST(DeviceGroup, AllGatherRowsConcatenatesInRankOrder) {
  DeviceGroup group(3);
  run_ranks(3, [&](int rank) {
    Tensor t({1, 2}, static_cast<float>(rank));
    const Tensor gathered = group.all_gather_rows(rank, t, "gather");
    ASSERT_EQ(gathered.dim(0), 3);
    for (int r = 0; r < 3; ++r) EXPECT_FLOAT_EQ(gathered.at(r, 0), static_cast<float>(r));
  });
}

TEST(DeviceGroup, RepeatedCollectivesReuseCleanState) {
  DeviceGroup group(2);
  run_ranks(2, [&](int rank) {
    for (int iter = 0; iter < 50; ++iter) {
      Tensor t({1}, static_cast<float>(rank + iter));
      group.all_reduce(rank, t, ReduceOp::Sum, "iter" + std::to_string(iter));
      EXPECT_FLOAT_EQ(t.at(0), static_cast<float>(2 * iter + 1));
    }
  });
  EXPECT_EQ(group.completed_collectives(), 50u);
}

TEST(DeviceGroup, TagMismatchIsDetected) {
  DeviceGroup group(2, std::chrono::milliseconds(2000));
  std::atomic<int> failures{0};
  run_ranks(2, [&](int rank) {
    Tensor t({1});
    try {
      group.all_reduce(rank, t, ReduceOp::Sum, rank == 0 ? "a" : "b");
    } catch (const Error&) {
      ++failures;
    }
  });
  EXPECT_GE(failures.load(), 1);
}

TEST(DeviceGroup, MissingParticipantTimesOutAsDeadlock) {
  DeviceGroup group(2, std::chrono::milliseconds(200));
  Tensor t({1});
  EXPECT_THROW(group.all_reduce(0, t, ReduceOp::Sum, "lonely"), DeadlockError);
}

TEST(DeviceGroup, ShapeMismatchAcrossRanksThrows) {
  DeviceGroup group(2, std::chrono::milliseconds(2000));
  std::atomic<int> failures{0};
  run_ranks(2, [&](int rank) {
    Tensor t = rank == 0 ? Tensor({2}) : Tensor({3});
    try {
      group.all_reduce(rank, t, ReduceOp::Sum, "shape");
    } catch (const Error&) {
      ++failures;
    }
  });
  EXPECT_GE(failures.load(), 1);
}

TEST(DeviceGroup, InvalidRankThrows) {
  DeviceGroup group(2);
  Tensor t({1});
  EXPECT_THROW(group.all_reduce(2, t, ReduceOp::Sum, "x"), CheckError);
  EXPECT_THROW(group.all_reduce(-1, t, ReduceOp::Sum, "x"), CheckError);
}

TEST(DeviceGroup, SingleRankGroupIsIdentity) {
  DeviceGroup group(1);
  Tensor t({2}, 3.0f);
  group.all_reduce(0, t, ReduceOp::Sum, "solo");
  EXPECT_FLOAT_EQ(t.at(0), 3.0f);
}

// ---------------------------------------------------------------------------
// Posted collectives (threads backend): a post never blocks, several
// collectives can be in flight, matched across ranks by tag, and each rank
// waits where it needs the result.
// ---------------------------------------------------------------------------

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

Tensor rank_tensor(int rank) {
  Tensor t({3, 5});
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = std::sin(0.37f * static_cast<float>(i) + static_cast<float>(rank)) *
                  (1.0f + 0.01f * static_cast<float>(rank));
  }
  return t;
}

TEST(DeviceGroupPost, SeveralPostedBeforeAnyWaitAndWaitedInAnotherOrder) {
  constexpr int kWorld = 3;
  DeviceGroup group(kWorld, std::chrono::seconds(5));
  ASSERT_TRUE(group.nonblocking_post());
  run_ranks(kWorld, [&](int rank) {
    Tensor sum({2}, static_cast<float>(rank + 1));
    Tensor max({2}, static_cast<float>(rank));
    Tensor bcast = rank == 1 ? Tensor({2}, 5.0f) : Tensor();
    Tensor rows({1, 2}, static_cast<float>(rank));
    Tensor gathered;
    // Every rank posts in its own order: a post that waited for its peers
    // would deadlock here.
    std::vector<std::function<void()>> posts = {
        [&] { group.post_all_reduce(rank, sum, ReduceOp::Sum, "sum"); },
        [&] { group.post_all_reduce(rank, max, ReduceOp::Max, "max"); },
        [&] { group.post_broadcast(rank, /*root=*/1, bcast, "bcast"); },
        [&] { group.post_all_gather_rows(rank, rows, gathered, "gather"); },
    };
    std::rotate(posts.begin(), posts.begin() + rank, posts.end());
    for (const auto& post : posts) post();
    std::vector<std::string> waits = {"gather", "bcast", "max", "sum"};
    std::rotate(waits.begin(), waits.begin() + (rank + 1) % 4, waits.end());
    for (const std::string& tag : waits) group.wait(rank, tag);

    EXPECT_FLOAT_EQ(sum.at(1), 6.0f);
    EXPECT_FLOAT_EQ(max.at(0), 2.0f);
    ASSERT_EQ(bcast.numel(), 2);
    EXPECT_FLOAT_EQ(bcast.at(1), 5.0f);
    ASSERT_EQ(gathered.dim(0), kWorld);
    for (int r = 0; r < kWorld; ++r) EXPECT_FLOAT_EQ(gathered.at(r, 1), static_cast<float>(r));
  });
  EXPECT_EQ(group.completed_collectives(), 4u);
  EXPECT_TRUE(group.waiting_ranks().empty());
}

TEST(DeviceGroupPost, DescribeListsInFlightTagsWithArrivedCounts) {
  // Posts never block, so one thread can drive both ranks.
  DeviceGroup group(2);
  Tensor a0({1}, 1.0f), b0({1}, 2.0f), a1({1}, 3.0f), b1({1}, 4.0f);
  group.post_all_reduce(0, a0, ReduceOp::Sum, "C1.0");
  group.post_all_reduce(0, b0, ReduceOp::Sum, "jBC3");
  const std::string in_flight = group.describe();
  EXPECT_NE(in_flight.find("'C1.0' all_reduce arrived 1/2"), std::string::npos) << in_flight;
  EXPECT_NE(in_flight.find("'jBC3' all_reduce arrived 1/2"), std::string::npos) << in_flight;
  EXPECT_EQ(group.completed_collectives(), 0u);

  group.post_all_reduce(1, b1, ReduceOp::Sum, "jBC3");
  group.post_all_reduce(1, a1, ReduceOp::Sum, "C1.0");
  EXPECT_EQ(group.completed_collectives(), 2u);  // the last poster folds
  group.wait(1, "C1.0");
  group.wait(0, "jBC3");
  group.wait(0, "C1.0");
  group.wait(1, "jBC3");
  EXPECT_FLOAT_EQ(a0.at(0), 4.0f);
  EXPECT_FLOAT_EQ(a1.at(0), 4.0f);
  EXPECT_FLOAT_EQ(b0.at(0), 6.0f);
  EXPECT_FLOAT_EQ(b1.at(0), 6.0f);
  EXPECT_NE(group.describe().find("in flight 0 []"), std::string::npos) << group.describe();
}

TEST(DeviceGroupPost, PostThenWaitIsBitIdenticalToTheBlockingCalls) {
  constexpr int kWorld = 4;
  struct Results {
    Tensor sum, max, bcast, gathered;
  };
  const auto run = [&](bool posted) {
    DeviceGroup group(kWorld, std::chrono::seconds(10));
    std::vector<Results> out(kWorld);
    run_ranks(kWorld, [&](int rank) {
      Results& r = out[static_cast<std::size_t>(rank)];
      r.sum = rank_tensor(rank);
      r.max = rank_tensor(rank);
      r.bcast = rank == 2 ? rank_tensor(2) : Tensor();
      const Tensor rows = rank_tensor(rank);
      if (posted) {
        group.post_all_reduce(rank, r.sum, ReduceOp::Sum, "sum");
        group.post_all_reduce(rank, r.max, ReduceOp::Max, "max");
        group.post_broadcast(rank, /*root=*/2, r.bcast, "bcast");
        group.post_all_gather_rows(rank, rows, r.gathered, "gather");
        for (const char* tag : {"gather", "max", "bcast", "sum"}) group.wait(rank, tag);
      } else {
        group.all_reduce(rank, r.sum, ReduceOp::Sum, "sum");
        group.all_reduce(rank, r.max, ReduceOp::Max, "max");
        group.broadcast(rank, /*root=*/2, r.bcast, "bcast");
        r.gathered = group.all_gather_rows(rank, rows, "gather");
      }
    });
    return out;
  };
  const std::vector<Results> blocking = run(false);
  const std::vector<Results> posted = run(true);
  for (std::size_t r = 0; r < kWorld; ++r) {
    EXPECT_TRUE(same_bits(blocking[r].sum, posted[r].sum)) << "rank " << r;
    EXPECT_TRUE(same_bits(blocking[r].max, posted[r].max)) << "rank " << r;
    EXPECT_TRUE(same_bits(blocking[r].bcast, posted[r].bcast)) << "rank " << r;
    EXPECT_TRUE(same_bits(blocking[r].gathered, posted[r].gathered)) << "rank " << r;
  }
}

TEST(DeviceGroupPost, OneTagReusedInConsecutiveCollectives) {
  // Deterministic interleaving on one thread: rank 0 reposts the tag before
  // rank 1 has taken the first result; each wait gets its own collective's.
  DeviceGroup group(2);
  Tensor first0({1}, 1.0f), first1({1}, 2.0f), second0({1}, 10.0f), second1({1}, 20.0f);
  group.post_all_reduce(0, first0, ReduceOp::Sum, "reused");
  group.post_all_reduce(1, first1, ReduceOp::Sum, "reused");
  group.wait(0, "reused");
  group.post_all_reduce(0, second0, ReduceOp::Sum, "reused");
  group.wait(1, "reused");
  EXPECT_FLOAT_EQ(first0.at(0), 3.0f);
  EXPECT_FLOAT_EQ(first1.at(0), 3.0f);
  group.post_all_reduce(1, second1, ReduceOp::Sum, "reused");
  group.wait(1, "reused");
  group.wait(0, "reused");
  EXPECT_FLOAT_EQ(second0.at(0), 30.0f);
  EXPECT_FLOAT_EQ(second1.at(0), 30.0f);

  // And free-running on two threads.
  run_ranks(2, [&](int rank) {
    for (int iter = 0; iter < 50; ++iter) {
      Tensor t({1}, static_cast<float>(rank + iter));
      group.post_all_reduce(rank, t, ReduceOp::Sum, "reused");
      group.wait(rank, "reused");
      EXPECT_FLOAT_EQ(t.at(0), static_cast<float>(2 * iter + 1));
    }
  });
  EXPECT_EQ(group.completed_collectives(), 52u);
}

TEST(DeviceGroupPost, WaitWhosePeerNeverPostsTimesOutNamingTheTag) {
  DeviceGroup group(2, std::chrono::milliseconds(200));
  Tensor t({1});
  group.post_all_reduce(0, t, ReduceOp::Sum, "C1.7");
  try {
    group.wait(0, "C1.7");
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'C1.7'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("arrived 1/2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("not posted by r1"), std::string::npos) << msg;
  }
  EXPECT_TRUE(group.waiting_ranks().empty());
}

TEST(DeviceGroupPost, AbortUnblocksAWaitWithinAPollSlice) {
  DeviceGroup group(2);
  auto token = std::make_shared<AbortToken>();
  group.set_abort_token(token);
  Tensor t({1});
  group.post_all_reduce(0, t, ReduceOp::Sum, "lonely");
  std::atomic<bool> aborted{false};
  std::chrono::steady_clock::time_point returned;
  std::thread waiter([&] {
    try {
      group.wait(0, "lonely");
      ADD_FAILURE() << "rank 1 never posts";
    } catch (const AbortedError&) {
      aborted = true;
    }
    returned = std::chrono::steady_clock::now();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(group.waiting_ranks(), std::vector<int>{0});
  const auto at_abort = std::chrono::steady_clock::now();
  token->abort({1, 7, "rank 1 died"});
  waiter.join();
  EXPECT_TRUE(aborted);
  // The wait re-checks the token every kAbortPollInterval; allow generous
  // scheduling slack for loaded and sanitized runs.
  EXPECT_LT(returned - at_abort, kAbortPollInterval + std::chrono::milliseconds(990));
  EXPECT_TRUE(group.waiting_ranks().empty());
}

TEST(Channel, SendRecvPreservesOrderAndPayload) {
  Channel ch;
  ch.send("first", Tensor({1}, 1.0f));
  ch.send("second", Tensor({1}, 2.0f));
  const Message m1 = ch.recv();
  EXPECT_EQ(m1.tag, "first");
  EXPECT_FLOAT_EQ(m1.payload.at(0), 1.0f);
  const Tensor t2 = ch.recv_expect("second");
  EXPECT_FLOAT_EQ(t2.at(0), 2.0f);
}

TEST(Channel, RecvExpectRejectsWrongTag) {
  Channel ch;
  ch.send("fwd:mb0", Tensor({1}));
  EXPECT_THROW(ch.recv_expect("fwd:mb1"), CheckError);
}

TEST(Channel, CrossThreadTransfer) {
  Channel ch;
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) ch.send("mb" + std::to_string(i), Tensor({1}, static_cast<float>(i)));
  });
  for (int i = 0; i < 100; ++i) {
    const Tensor t = ch.recv_expect("mb" + std::to_string(i));
    EXPECT_FLOAT_EQ(t.at(0), static_cast<float>(i));
  }
  producer.join();
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, EmptyRecvTimesOut) {
  Channel ch(4, std::chrono::milliseconds(100));
  EXPECT_THROW(ch.recv(), DeadlockError);
}

TEST(Channel, FullSendTimesOut) {
  Channel ch(1, std::chrono::milliseconds(100));
  ch.send("a", Tensor({1}));
  EXPECT_THROW(ch.send("b", Tensor({1})), DeadlockError);
}

TEST(Channel, DeadlockErrorNamesQueuedTagsAndOccupancy) {
  Channel ch(2, std::chrono::milliseconds(100));
  ch.send("act:s1:mb0", Tensor({1}));
  ch.send("act:s1:mb1", Tensor({1}));
  try {
    ch.send("act:s1:mb2", Tensor({1}));
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'act:s1:mb2'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("occupancy 2/2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'act:s1:mb0', 'act:s1:mb1'"), std::string::npos) << msg;
  }
}

TEST(Channel, FullSendBlocksUntilDrained) {
  // A send into a full channel must block (not drop, not throw) and complete
  // once a reader drains capacity — the non-blocking-send guarantee the
  // schedule executor relies on is "bounded buffer", not "fire and forget".
  Channel ch(1, std::chrono::seconds(5));
  ch.send("first", Tensor({1}, 1.0f));
  std::atomic<bool> second_sent{false};
  std::thread producer([&] {
    ch.send("second", Tensor({1}, 2.0f));  // blocks: channel is at capacity
    second_sent = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_sent) << "send into a full channel must block";
  EXPECT_FLOAT_EQ(ch.recv_expect("first").at(0), 1.0f);
  EXPECT_FLOAT_EQ(ch.recv_expect("second").at(0), 2.0f);
  producer.join();
  EXPECT_TRUE(second_sent);
}

TEST(Channel, RecvTagPicksFromTheMiddleOfTheQueue) {
  Channel ch;
  ch.send("grad:s0:mb1", Tensor({1}, 1.0f));
  ch.send("act:s2:mb3", Tensor({1}, 3.0f));
  ch.send("grad:s0:mb2", Tensor({1}, 2.0f));
  EXPECT_FLOAT_EQ(ch.recv_tag("act:s2:mb3").at(0), 3.0f);
  EXPECT_FLOAT_EQ(ch.recv_tag("grad:s0:mb2").at(0), 2.0f);
  EXPECT_FLOAT_EQ(ch.recv_tag("grad:s0:mb1").at(0), 1.0f);
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, RecvTagUnblocksOnLateMatchingSend) {
  Channel ch(8, std::chrono::seconds(5));
  ch.send("other", Tensor({1}, 9.0f));
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ch.send("wanted", Tensor({1}, 7.0f));
  });
  EXPECT_FLOAT_EQ(ch.recv_tag("wanted").at(0), 7.0f);
  producer.join();
  EXPECT_EQ(ch.size(), 1u);  // "other" still queued for its own consumer
}

TEST(Channel, RecvTagTimeoutReportsWhatIsActuallyQueued) {
  Channel ch(4, std::chrono::milliseconds(100));
  ch.send("bwd:mb0", Tensor({1}));
  try {
    ch.recv_tag("bwd:mb1");
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'bwd:mb1'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("occupancy 1/4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'bwd:mb0'"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace vocab
