/**
 * @file
 * Tests of the byte-stream transport (src/dist/transport.hpp): frame
 * round-trips over real pipes, a short tail before EOF that is never
 * delivered, a malformed header that ends the link with a typed error
 * instead of a resync, and seed-stable deterministic fault injection
 * (every fault severs the link).
 *
 * Malformed input in these tests is real bytes written into the pipe,
 * not mocked failures.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "chaos/chaos.hpp"
#include "dist/protocol.hpp"
#include "dist/transport.hpp"

namespace bingo
{
namespace
{

using dist::Frame;
using dist::FramedLink;
using dist::LinkRole;
using dist::MsgType;
using dist::kHelloPayload;

/** A connected FramedLink pair over two real pipes — the shape of a
 *  worker's stdin/stdout. The `receiver` end reads non-blocking
 *  (poll-driven, like the coordinator's); the sender reads blocking,
 *  like a worker. */
struct LinkPair
{
    std::unique_ptr<FramedLink> sender;
    std::unique_ptr<FramedLink> receiver;
    int raw_fd = -1;  ///< The sender's write end (raw bytes).
};

LinkPair
makePair()
{
    int down[2];  // sender -> receiver
    int up[2];    // receiver -> sender
    EXPECT_EQ(::pipe(down), 0);
    EXPECT_EQ(::pipe(up), 0);
    const int flags = ::fcntl(down[0], F_GETFL, 0);
    EXPECT_EQ(::fcntl(down[0], F_SETFL, flags | O_NONBLOCK), 0);
    LinkPair pair;
    pair.raw_fd = down[1];
    pair.sender = std::make_unique<FramedLink>(up[0], down[1]);
    pair.receiver = std::make_unique<FramedLink>(down[0], up[1]);
    return pair;
}

/** Drain the receiver until `count` frames arrived or the link died. */
std::vector<Frame>
drain(FramedLink &receiver, std::size_t count)
{
    std::vector<Frame> frames;
    for (int spin = 0; spin < 2000 && frames.size() < count; ++spin) {
        std::vector<Frame> batch;
        if (!receiver.poll(batch) && batch.empty())
            break;
        for (Frame &frame : batch)
            frames.push_back(std::move(frame));
        ::usleep(1000);
    }
    return frames;
}

void
rawWrite(int fd, const std::string &bytes)
{
    ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
}

// --- Framing.

TEST(Transport, FramesRoundTripOverAPipePair)
{
    LinkPair pair = makePair();
    ASSERT_TRUE(pair.sender->send(MsgType::Hello, kHelloPayload));
    ASSERT_TRUE(pair.sender->send(MsgType::Job, "payload\nwith\nlines"));
    ASSERT_TRUE(pair.sender->send(MsgType::Heartbeat, ""));

    const std::vector<Frame> frames = drain(*pair.receiver, 3);
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].type, MsgType::Hello);
    EXPECT_EQ(frames[0].payload, kHelloPayload);
    EXPECT_EQ(frames[1].type, MsgType::Job);
    EXPECT_EQ(frames[1].payload, "payload\nwith\nlines");
    EXPECT_EQ(frames[2].type, MsgType::Heartbeat);
    EXPECT_EQ(frames[2].payload, "");

    // And back up the other pipe, read blocking like a worker.
    ASSERT_TRUE(pair.receiver->send(MsgType::Result, "up"));
    Frame frame;
    ASSERT_TRUE(pair.sender->readBlocking(frame));
    EXPECT_EQ(frame.type, MsgType::Result);
    EXPECT_EQ(frame.payload, "up");
}

TEST(Transport, MalformedHeaderEndsTheLinkWithATypedError)
{
    LinkPair pair = makePair();
    // A valid frame, then bytes that are no frame header (what a host
    // template's login banner looks like), then another valid frame.
    ASSERT_TRUE(pair.sender->send(MsgType::Job, "first"));
    rawWrite(pair.raw_fd, "Welcome to node7\n");
    ASSERT_TRUE(pair.sender->send(MsgType::Job, "third"));

    std::vector<Frame> frames;
    bool open = true;
    for (int spin = 0; spin < 2000 && open; ++spin) {
        std::vector<Frame> batch;
        open = pair.receiver->poll(batch);
        for (Frame &frame : batch)
            frames.push_back(std::move(frame));
        if (open)
            ::usleep(1000);
    }
    EXPECT_FALSE(open) << "a malformed header must end the link";
    ASSERT_EQ(frames.size(), 1u) << "no resync past the bad header";
    EXPECT_EQ(frames[0].payload, "first");
    EXPECT_NE(pair.receiver->error().find("malformed frame header"),
              std::string::npos)
        << pair.receiver->error();
    EXPECT_NE(pair.receiver->error().find("Welcome to node7"),
              std::string::npos)
        << pair.receiver->error();
    // The link stays down: nothing more is delivered.
    std::vector<Frame> later;
    EXPECT_FALSE(pair.receiver->poll(later));
    EXPECT_TRUE(later.empty());
}

TEST(Transport, TruncatedTailSurvivesUntilEofWithoutDeliveringIt)
{
    LinkPair pair = makePair();
    rawWrite(pair.raw_fd, FramedLink::encodeFrame(MsgType::Job, "whole"));
    const std::string cut =
        FramedLink::encodeFrame(MsgType::Job, "never-finished");
    rawWrite(pair.raw_fd, cut.substr(0, cut.size() - 5));
    pair.sender->close();  // EOF with a dangling partial frame.

    std::vector<Frame> frames;
    bool open = true;
    for (int spin = 0; spin < 2000 && open; ++spin) {
        std::vector<Frame> batch;
        open = pair.receiver->poll(batch);
        for (Frame &frame : batch)
            frames.push_back(std::move(frame));
        if (open)
            ::usleep(1000);
    }
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].payload, "whole");
    EXPECT_FALSE(open);  // Peer-gone is surfaced, frames first.
}

// --- Deterministic fault injection (the `transport` chaos site).

chaos::TransportFaultPlan
testPlan(std::uint64_t seed, double rate)
{
    chaos::TransportFaultPlan plan;
    plan.enabled = true;
    plan.seed = seed;
    plan.rate = rate;
    return plan;
}

/**
 * Send up to `count` heartbeats through a link faulted as worker
 * `slot` of spawn `epoch` and return the index of the frame whose send
 * severed it (`count` when none did). Every injected fault is a sever
 * and ends the link. `delivered` receives what the peer got.
 */
unsigned
firstSever(std::uint64_t seed, double rate, unsigned count,
           std::uint64_t slot, std::uint64_t epoch,
           std::vector<Frame> *delivered = nullptr)
{
    LinkPair pair = makePair();
    pair.sender->enableFaults(testPlan(seed, rate), LinkRole::Worker,
                              slot, epoch);
    unsigned sent = 0;
    while (sent < count &&
           pair.sender->send(MsgType::Heartbeat,
                             "hb " + std::to_string(sent)))
        ++sent;
    EXPECT_EQ(pair.sender->injectedFaults(), sent < count ? 1u : 0u);
    std::vector<Frame> frames = drain(*pair.receiver, count);
    if (delivered != nullptr)
        *delivered = std::move(frames);
    return sent;
}

/** First-sever frames of one seed over four slots and two epochs. */
std::vector<unsigned>
severSchedule(std::uint64_t seed)
{
    std::vector<unsigned> frames;
    for (std::uint64_t slot = 0; slot < 4; ++slot) {
        for (std::uint64_t epoch = 0; epoch < 2; ++epoch)
            frames.push_back(firstSever(seed, 0.35, 30, slot, epoch));
    }
    return frames;
}

TEST(TransportChaos, FaultScheduleIsSeedStable)
{
    const std::vector<unsigned> a = severSchedule(0xfeed);
    EXPECT_EQ(a, severSchedule(0xfeed));
    EXPECT_NE(a, std::vector<unsigned>(a.size(), 30u))
        << "rate 0.35 over 30 frames should sever at least once";
}

TEST(TransportChaos, DifferentSeedsGiveDifferentSchedules)
{
    // Identical first-sever frames on every stream would mean the
    // seed is ignored.
    EXPECT_NE(severSchedule(1), severSchedule(2));
}

TEST(TransportChaos, DeliveredFramesAreAnInOrderPrefixOfWhatWasSent)
{
    // A sever cuts the stream, so the receiver sees frames 0, 1, 2, ...
    // up to the severed one, with none skipped, reordered or
    // repeated.
    std::vector<Frame> delivered;
    const unsigned severed = firstSever(0xabcd, 0.4, 40, 3, 1, &delivered);
    ASSERT_LT(severed, 40u);
    ASSERT_EQ(delivered.size(), severed);
    for (std::size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i].payload, "hb " + std::to_string(i));
}

TEST(TransportChaos, TransportPlanComesOnlyFromTheTransportSite)
{
    // Parsing: `transport` is a named site, excluded from `all`.
    const ChaosConfig transport_only =
        chaos::parseChaosSpec("7:0.25:transport");
    EXPECT_EQ(transport_only.site_mask,
              chaos::siteBit(chaos::ChaosSite::Transport));
    const ChaosConfig all = chaos::parseChaosSpec("7:0.25:all");
    EXPECT_EQ(all.site_mask & chaos::siteBit(
                                  chaos::ChaosSite::Transport),
              0u);
    EXPECT_EQ(all.site_mask, chaos::kSimSiteMask);

    // Mixed specs parse too.
    const ChaosConfig mixed =
        chaos::parseChaosSpec("7:0.25:pf,transport");
    EXPECT_NE(mixed.site_mask & chaos::siteBit(
                                    chaos::ChaosSite::Transport),
              0u);
    EXPECT_NE(mixed.site_mask & chaos::siteBit(
                                    chaos::ChaosSite::Prefetcher),
              0u);

    // A transport-only plan must never reach the simulated machine:
    // applyEnvChaos strips the bit (here exercised via the mask math
    // it uses — the env itself is cached per-process and unset under
    // test).
    EXPECT_EQ(transport_only.site_mask & chaos::kSimSiteMask, 0u);
}

} // namespace
} // namespace bingo
