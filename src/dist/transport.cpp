#include "dist/transport.hpp"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include <unistd.h>

#include "common/hash.hpp"

namespace bingo
{
namespace dist
{

namespace
{

/** Frame magic; the trailing digit is the framing version. */
constexpr char kLinkMagic[] = "BJF2";
constexpr std::size_t kMagicLen = 4;

constexpr std::size_t kMaxFramePayload = 64u * 1024u * 1024u;
/** Longest well-formed header line; garbage beyond this can never
 *  become a valid header and triggers a resync. */
constexpr std::size_t kMaxHeader = 160;

std::string
errnoMessage(const char *what)
{
    if (errno == EPIPE || errno == ECONNRESET)
        return std::string("broken pipe: ") + what +
               " failed, peer is gone (" + std::strerror(errno) + ")";
    return std::string(what) + " failed: " + std::strerror(errno);
}

} // namespace

std::uint32_t
crc32(std::string_view data)
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (unsigned char byte : data)
        crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

// --- PipeChannel -------------------------------------------------------

bool
PipeChannel::write(const char *data, std::size_t size)
{
    if (write_fd_ < 0) {
        if (error_.empty())
            error_ = "pipe channel already closed";
        return false;
    }
    std::size_t sent = 0;
    while (sent < size) {
        // Callers ignore SIGPIPE process-wide (coordinator and worker
        // both install SIG_IGN), so a dead peer yields EPIPE here.
        const ssize_t n = ::write(write_fd_, data + sent, size - sent);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error_ = errnoMessage("write");
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

ReadStatus
PipeChannel::read(char *buf, std::size_t size, std::size_t &got)
{
    got = 0;
    if (read_fd_ < 0) {
        if (error_.empty())
            error_ = "pipe channel already closed";
        return ReadStatus::Error;
    }
    for (;;) {
        const ssize_t n = ::read(read_fd_, buf, size);
        if (n > 0) {
            got = static_cast<std::size_t>(n);
            return ReadStatus::Data;
        }
        if (n == 0)
            return ReadStatus::Eof;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return ReadStatus::WouldBlock;
        error_ = errnoMessage("read");
        return ReadStatus::Error;
    }
}

void
PipeChannel::close()
{
    if (read_fd_ >= 0) {
        ::close(read_fd_);
        read_fd_ = -1;
    }
    if (write_fd_ >= 0) {
        ::close(write_fd_);
        write_fd_ = -1;
    }
}

// --- FramedLink --------------------------------------------------------

std::string
FramedLink::encodeFrame(MsgType type, std::uint64_t seq,
                        std::string_view payload)
{
    char body[96];
    const int body_len = std::snprintf(
        body, sizeof(body), "%u %llu %zu",
        static_cast<unsigned>(type),
        static_cast<unsigned long long>(seq), payload.size());
    // The CRC covers "<type> <seq> <len>\n<payload>": corrupting any
    // header field, the length, or any payload byte is detected.
    std::string covered;
    covered.reserve(static_cast<std::size_t>(body_len) + 1 +
                    payload.size());
    covered.append(body, static_cast<std::size_t>(body_len));
    covered.push_back('\n');
    covered.append(payload);
    char header[128];
    const int header_len = std::snprintf(
        header, sizeof(header), "%s %s %08x\n", kLinkMagic, body,
        crc32(covered));
    std::string frame;
    frame.reserve(static_cast<std::size_t>(header_len) + payload.size());
    frame.append(header, static_cast<std::size_t>(header_len));
    frame.append(payload);
    return frame;
}

void
FramedLink::enableFaults(const chaos::TransportFaultPlan &plan,
                         LinkRole role, std::uint64_t slot,
                         std::uint64_t epoch)
{
    if (!plan.enabled)
        return;
    faults_enabled_ = true;
    fault_rate_ = plan.rate;
    // Per-endpoint stream: coordinator and worker sides of one link
    // draw independently, and a respawned worker (new epoch) does not
    // replay its predecessor's schedule — a deterministic first-frame
    // sever would otherwise livelock the slot.
    fault_rng_.reseed(hashCombine(
        hashCombine(plan.seed, static_cast<std::uint64_t>(role) + 1),
        hashCombine(slot + 1, epoch + 1)));
}

bool
FramedLink::writeBytes(const std::string &bytes)
{
    if (!channel_.isOpen()) {
        if (error_.empty())
            error_ = channel_.error();
        return false;
    }
    if (!channel_.write(bytes.data(), bytes.size())) {
        error_ = channel_.error();
        return false;
    }
    return true;
}

void
FramedLink::flushStalled()
{
    const auto now = std::chrono::steady_clock::now();
    while (!outbox_.empty() && outbox_.front().release <= now) {
        const std::string bytes = std::move(outbox_.front().bytes);
        outbox_.pop_front();
        if (!writeBytes(bytes))
            return;  // Link down; error_ is set.
    }
}

bool
FramedLink::faultedWrite(std::string bytes)
{
    // One fault opportunity per frame. Draw order is fixed — chance,
    // then kind, then kind-specific values — so the schedule depends
    // only on the frame sequence, exactly like the simulation sites.
    if (faults_enabled_ && fault_rng_.chance(fault_rate_)) {
        ++stats_.injected_faults;
        switch (fault_rng_.below(5)) {
        case 0: {  // Corrupt: flip one bit anywhere in the frame.
            const std::size_t pos = static_cast<std::size_t>(
                fault_rng_.below(bytes.size()));
            bytes[pos] = static_cast<char>(
                bytes[pos] ^ (1u << fault_rng_.below(8)));
            break;
        }
        case 1: {  // Truncate: drop the frame's tail mid-write.
            const std::size_t cut = 1 + static_cast<std::size_t>(
                fault_rng_.below(bytes.size()));
            bytes.resize(bytes.size() - std::min(cut, bytes.size() - 1));
            break;
        }
        case 2:  // Duplicate: the frame arrives twice.
            if (!outbox_.empty()) {
                outbox_.push_back(
                    {std::chrono::steady_clock::now(), bytes});
                outbox_.push_back(
                    {std::chrono::steady_clock::now(), bytes});
                return true;
            }
            return writeBytes(bytes) && writeBytes(bytes);
        case 3: {  // Stall: delay this frame (and everything after it).
            const auto release =
                std::chrono::steady_clock::now() +
                std::chrono::milliseconds(5 + fault_rng_.below(120));
            outbox_.push_back({release, std::move(bytes)});
            return true;
        }
        case 4:  // Sever: the connection drops mid-conversation.
            channel_.close();
            error_ = "transport severed by fault injection "
                     "(BINGO_CHAOS transport site)";
            return false;
        default:
            break;
        }
    }
    if (!outbox_.empty()) {
        // A stalled frame blocks the stream: later frames queue behind
        // it so per-direction ordering — which the lease/heartbeat
        // reconciliation depends on — is preserved.
        outbox_.push_back({std::chrono::steady_clock::now(),
                           std::move(bytes)});
        return true;
    }
    return writeBytes(bytes);
}

bool
FramedLink::send(MsgType type, std::string_view payload)
{
    if (!error_.empty())
        return false;
    flushStalled();
    if (!error_.empty())
        return false;
    std::string bytes = encodeFrame(type, next_seq_++, payload);
    if (!faultedWrite(std::move(bytes)))
        return false;
    ++stats_.frames_sent;
    flushStalled();
    return error_.empty();
}

bool
FramedLink::resync(std::size_t from)
{
    // Skip to the next plausible frame start. Counted once per resync:
    // one corrupted/truncated frame costs one event however many bytes
    // it mangled.
    ++stats_.corrupt_frames_dropped;
    const std::size_t pos = inbuf_.find(kLinkMagic, from);
    if (pos == std::string::npos) {
        // Keep a magic-sized tail in case the magic itself is split
        // across reads.
        const std::size_t keep =
            inbuf_.size() < kMagicLen - 1 ? inbuf_.size()
                                          : kMagicLen - 1;
        inbuf_.erase(0, inbuf_.size() - keep);
        return false;
    }
    inbuf_.erase(0, pos);
    return true;
}

bool
FramedLink::decodeBuffered(bool &made_progress)
{
    made_progress = false;
    for (;;) {
        const std::size_t newline = inbuf_.find('\n');
        if (newline == std::string::npos) {
            if (inbuf_.size() <= kMaxHeader)
                return true;  // Header may still be arriving.
            if (!resync(1))
                return true;
            made_progress = true;
            continue;
        }
        std::istringstream header(inbuf_.substr(0, newline));
        std::string magic;
        unsigned type = 0;
        unsigned long long seq = 0;
        std::size_t size = 0;
        std::string crc_hex;
        char *endp = nullptr;
        unsigned long crc_claim = 0;
        const bool parsed =
            static_cast<bool>(header >> magic >> type >> seq >> size >>
                              crc_hex) &&
            magic == kLinkMagic &&
            type <= static_cast<unsigned>(MsgType::Bye) &&
            size <= kMaxFramePayload && crc_hex.size() == 8 &&
            (crc_claim = std::strtoul(crc_hex.c_str(), &endp, 16),
             endp != nullptr && *endp == '\0');
        if (!parsed) {
            if (!resync(1))
                return true;
            made_progress = true;
            continue;
        }
        if (inbuf_.size() < newline + 1 + size)
            return true;  // Payload still in flight.

        // Re-derive the covered bytes and check. A truncated frame
        // swallows the next frame's header as "payload" and fails
        // here; resync then finds the real next frame inside the
        // rejected bytes.
        std::string covered = std::to_string(type) + ' ' +
                              std::to_string(seq) + ' ' +
                              std::to_string(size) + '\n';
        covered.append(inbuf_, newline + 1, size);
        if (crc32(covered) != static_cast<std::uint32_t>(crc_claim)) {
            if (!resync(1))
                return true;
            made_progress = true;
            continue;
        }

        Frame frame;
        frame.type = static_cast<MsgType>(type);
        frame.payload = inbuf_.substr(newline + 1, size);
        inbuf_.erase(0, newline + 1 + size);
        made_progress = true;

        // Sequence discipline: duplicates (injected or replayed) are
        // suppressed; holes mean frames died on the wire and are
        // counted so the loss is observable, not silent.
        if (seq <= last_seq_seen_) {
            ++stats_.duplicate_frames_suppressed;
            continue;
        }
        stats_.frame_gaps += seq - last_seq_seen_ - 1;
        last_seq_seen_ = seq;
        ++stats_.frames_received;
        decoded_.push_back(std::move(frame));
    }
}

bool
FramedLink::poll(std::vector<Frame> &out)
{
    flushStalled();
    bool progress = false;
    if (channel_.isOpen() && !peer_gone_) {
        char chunk[65536];
        for (;;) {
            std::size_t got = 0;
            const ReadStatus status =
                channel_.read(chunk, sizeof(chunk), got);
            if (status == ReadStatus::Data) {
                inbuf_.append(chunk, got);
                continue;
            }
            if (status == ReadStatus::WouldBlock)
                break;
            // EOF or hard error: decode what we have, then report the
            // peer as gone so buffered final frames still surface.
            peer_gone_ = true;
            if (status == ReadStatus::Error && error_.empty())
                error_ = channel_.error();
            break;
        }
    } else {
        peer_gone_ = true;
    }
    decodeBuffered(progress);
    while (!decoded_.empty()) {
        out.push_back(std::move(decoded_.front()));
        decoded_.pop_front();
    }
    return !peer_gone_;
}

bool
FramedLink::readBlocking(Frame &out)
{
    for (;;) {
        bool progress = false;
        decodeBuffered(progress);
        if (!decoded_.empty()) {
            out = std::move(decoded_.front());
            decoded_.pop_front();
            return true;
        }
        if (peer_gone_ || !channel_.isOpen())
            return false;
        char chunk[65536];
        std::size_t got = 0;
        const ReadStatus status =
            channel_.read(chunk, sizeof(chunk), got);
        if (status == ReadStatus::Data) {
            inbuf_.append(chunk, got);
            continue;
        }
        if (status == ReadStatus::WouldBlock)
            continue;  // Only plausible under test harnesses.
        peer_gone_ = true;
        if (status == ReadStatus::Error && error_.empty())
            error_ = channel_.error();
    }
}

void
FramedLink::close()
{
    channel_.close();
    outbox_.clear();
}

} // namespace dist
} // namespace bingo
