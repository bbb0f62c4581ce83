// The in-process MPI substrate: point-to-point matching (eager and
// rendezvous), collectives, ordering and counters.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "mpi/mpi.hpp"

namespace {

using tdg::mpi::Comm;
using tdg::mpi::Op;
using tdg::mpi::Request;
using tdg::mpi::Universe;

TEST(Mpi, EagerPingPong) {
  Universe::run(2, [](Comm& comm) {
    double payload = 42.0;
    if (comm.rank() == 0) {
      comm.send(&payload, sizeof payload, 1, 7);
      double back = 0;
      comm.recv(&back, sizeof back, 1, 8);
      EXPECT_EQ(back, 43.0);
    } else {
      double got = 0;
      comm.recv(&got, sizeof got, 0, 7);
      EXPECT_EQ(got, 42.0);
      got += 1.0;
      comm.send(&got, sizeof got, 0, 8);
    }
  });
}

TEST(Mpi, RendezvousTransfersLargeBuffer) {
  Universe::Options opts;
  opts.eager_threshold = 64;  // force rendezvous for this payload
  // The receive is posted only after the send: a receive posted first is
  // matched by a direct copy, which counts as an eager send.
  std::atomic<bool> sent{false};
  Universe::run(2, [&sent](Comm& comm) {
    std::vector<double> buf(1024);
    if (comm.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 0.0);
      Request r = comm.isend(buf.data(), buf.size() * sizeof(double), 1, 0);
      sent.store(true, std::memory_order_release);
      comm.wait(r);
      EXPECT_EQ(comm.stats().rendezvous_sends, 1u);
      EXPECT_EQ(comm.stats().eager_sends, 0u);
    } else {
      while (!sent.load(std::memory_order_acquire)) std::this_thread::yield();
      std::vector<double> got(1024, -1.0);
      comm.recv(got.data(), got.size() * sizeof(double), 0, 0);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], static_cast<double>(i));
      }
    }
  }, opts);
}

TEST(Mpi, RendezvousSendIncompleteUntilMatched) {
  Universe::Options opts;
  opts.eager_threshold = 0;
  Universe::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      double x = 3.14;
      Request r = comm.isend(&x, sizeof x, 1, 0);
      // No receive posted yet: a rendezvous send must not complete.
      EXPECT_FALSE(Comm::test(r));
      comm.barrier();  // rank 1 posts its receive after this barrier
      comm.wait(r);
      EXPECT_TRUE(Comm::test(r));
    } else {
      comm.barrier();
      double y = 0;
      comm.recv(&y, sizeof y, 0, 0);
      EXPECT_EQ(y, 3.14);
    }
  }, opts);
}

TEST(Mpi, PostedReceiveMatchedDirectly) {
  Universe::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      double y = 0;
      Request r = comm.irecv(&y, sizeof y, 1, 5);
      comm.barrier();
      comm.wait(r);
      EXPECT_EQ(y, 2.71);
    } else {
      comm.barrier();  // ensure the receive is posted first
      double x = 2.71;
      comm.send(&x, sizeof x, 0, 5);
    }
  });
}

TEST(Mpi, MessagesDoNotOvertakeWithinTag) {
  Universe::run(2, [](Comm& comm) {
    constexpr int kMsgs = 64;
    if (comm.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        comm.send(&i, sizeof i, 1, 3);
      }
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        int got = -1;
        comm.recv(&got, sizeof got, 0, 3);
        ASSERT_EQ(got, i) << "messages overtook each other";
      }
    }
  });
}

TEST(Mpi, TagsSelectMessages) {
  Universe::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      int a = 1, b = 2;
      comm.send(&a, sizeof a, 1, 10);
      comm.send(&b, sizeof b, 1, 20);
    } else {
      int hi = 0, lo = 0;
      // Receive in reverse tag order: matching must be by tag, not FIFO.
      comm.recv(&hi, sizeof hi, 0, 20);
      comm.recv(&lo, sizeof lo, 0, 10);
      EXPECT_EQ(hi, 2);
      EXPECT_EQ(lo, 1);
    }
  });
}

class MpiAllreduce : public ::testing::TestWithParam<int> {};

TEST_P(MpiAllreduce, SumMinMaxAcrossRanks) {
  const int nranks = GetParam();
  Universe::run(nranks, [nranks](Comm& comm) {
    const double mine = static_cast<double>(comm.rank() + 1);
    double sum = 0, mn = 0, mx = 0;
    comm.allreduce(&mine, &sum, 1, Op::Sum);
    comm.allreduce(&mine, &mn, 1, Op::Min);
    comm.allreduce(&mine, &mx, 1, Op::Max);
    EXPECT_EQ(sum, nranks * (nranks + 1) / 2.0);
    EXPECT_EQ(mn, 1.0);
    EXPECT_EQ(mx, static_cast<double>(nranks));
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, MpiAllreduce,
                         ::testing::Values(1, 2, 3, 8, 16));

TEST(Mpi, VectorAllreduce) {
  Universe::run(4, [](Comm& comm) {
    std::vector<double> mine(32), out(32);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      mine[i] = static_cast<double>(comm.rank()) * 100 + static_cast<double>(i);
    }
    comm.allreduce(mine.data(), out.data(), mine.size(), Op::Max);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], 300.0 + static_cast<double>(i));
    }
  });
}

TEST(Mpi, SequentialCollectivesMatchBySequence) {
  Universe::run(3, [](Comm& comm) {
    for (int round = 0; round < 50; ++round) {
      double mine = static_cast<double>(round * comm.size() + comm.rank());
      double mx = 0;
      comm.allreduce(&mine, &mx, 1, Op::Max);
      ASSERT_EQ(mx, static_cast<double>(round * comm.size() + comm.size() - 1))
          << "round " << round;
    }
  });
}

TEST(Mpi, NonblockingAllreduceOverlapsWork) {
  Universe::run(2, [](Comm& comm) {
    double mine = static_cast<double>(comm.rank());
    double out = -1;
    Request r = comm.iallreduce(&mine, &out, 1, Op::Sum);
    // Do unrelated work before waiting; result must still be correct.
    volatile double sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + 1;
    comm.wait(r);
    EXPECT_EQ(out, 1.0);
  });
}

TEST(Mpi, RingExchangeStress) {
  constexpr int kRanks = 8;
  constexpr int kIters = 100;
  Universe::run(kRanks, [](Comm& comm) {
    const int right = (comm.rank() + 1) % comm.size();
    const int left = (comm.rank() + comm.size() - 1) % comm.size();
    long token = comm.rank();
    for (int it = 0; it < kIters; ++it) {
      long incoming = -1;
      Request rr = comm.irecv(&incoming, sizeof incoming, left, it);
      Request sr = comm.isend(&token, sizeof token, right, it);
      comm.wait(rr);
      comm.wait(sr);
      token = incoming + 1;
    }
    // After kIters hops, the token started at (rank - kIters) mod size and
    // was incremented once per hop.
    const long origin = ((comm.rank() - kIters) % comm.size() +
                         comm.size()) % comm.size();
    EXPECT_EQ(token, origin + kIters);
  });
}

TEST(Mpi, StatsCountTraffic) {
  Universe::Options opts;
  opts.eager_threshold = 16;
  Universe::run(2, [](Comm& comm) {
    std::vector<std::byte> small(8), big(64);
    if (comm.rank() == 0) {
      comm.barrier();
      comm.send(small.data(), small.size(), 1, 1);
      comm.send(big.data(), big.size(), 1, 2);
      EXPECT_EQ(comm.stats().sends, 2u);
      EXPECT_EQ(comm.stats().bytes_sent, 72u);
      EXPECT_EQ(comm.stats().allreduces, 1u);
    } else {
      comm.barrier();
      comm.recv(small.data(), small.size(), 0, 1);
      comm.recv(big.data(), big.size(), 0, 2);
      EXPECT_EQ(comm.stats().recvs, 2u);
    }
  }, opts);
}

TEST(Mpi, SingleRankUniverse) {
  Universe::run(1, [](Comm& comm) {
    EXPECT_EQ(comm.size(), 1);
    double x = 5, y = 0;
    comm.allreduce(&x, &y, 1, Op::Sum);
    EXPECT_EQ(y, 5.0);
    comm.barrier();
    // Self-send must also work.
    double got = 0;
    Request rr = comm.irecv(&got, sizeof got, 0, 0);
    comm.send(&x, sizeof x, 0, 0);
    comm.wait(rr);
    EXPECT_EQ(got, 5.0);
  });
}

}  // namespace
