#include "dist/transport.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>

#include <unistd.h>

#include "common/hash.hpp"

namespace bingo
{
namespace dist
{

namespace
{

/** Frame magic; the trailing digit is the framing version. */
constexpr std::string_view kLinkMagic = "BJF3";

constexpr std::size_t kMaxFramePayload = 64u * 1024u * 1024u;
/** Longest well-formed header line; more bytes without a newline can
 *  never become a valid header. */
constexpr std::size_t kMaxHeader = 64;

std::string
errnoMessage(const char *what)
{
    if (errno == EPIPE || errno == ECONNRESET)
        return std::string("broken pipe: ") + what +
               " failed, peer is gone (" + std::strerror(errno) + ")";
    return std::string(what) + " failed: " + std::strerror(errno);
}

/** Parse `BJF3 <type> <len>` strictly; false on anything else. */
bool
parseHeader(std::string_view line, unsigned &type, std::size_t &size)
{
    if (line.size() <= kLinkMagic.size() ||
        line.substr(0, kLinkMagic.size()) != kLinkMagic ||
        line[kLinkMagic.size()] != ' ')
        return false;
    const char *end = line.data() + line.size();
    const auto [after_type, type_ec] = std::from_chars(
        line.data() + kLinkMagic.size() + 1, end, type);
    if (type_ec != std::errc() || after_type == end || *after_type != ' ')
        return false;
    const auto [after_size, size_ec] =
        std::from_chars(after_type + 1, end, size);
    return size_ec == std::errc() && after_size == end &&
           type <= static_cast<unsigned>(MsgType::Result) &&
           size <= kMaxFramePayload;
}

/** The start of a rejected header, safe to print. */
std::string
printable(std::string_view bytes)
{
    std::string out(bytes.substr(0, 40));
    for (char &c : out) {
        if (!std::isprint(static_cast<unsigned char>(c)))
            c = '?';
    }
    return out;
}

} // namespace

std::string
FramedLink::encodeFrame(MsgType type, std::string_view payload)
{
    std::string frame(kLinkMagic);
    frame += ' ' + std::to_string(static_cast<unsigned>(type)) + ' ' +
             std::to_string(payload.size()) + '\n';
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
    if (write_fd_ < 0) {
        if (send_error_.empty())
            send_error_ = "link already closed";
        return false;
    }
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        // Callers ignore SIGPIPE process-wide (coordinator and worker
        // both install SIG_IGN), so a dead peer yields EPIPE here.
        const ssize_t n = ::write(write_fd_, bytes.data() + sent,
                                  bytes.size() - sent);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            send_error_ = errnoMessage("write");
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
FramedLink::send(MsgType type, std::string_view payload)
{
    if (!send_error_.empty())
        return false;
    // One fault opportunity per frame, so the schedule depends only on
    // the frame sequence, exactly like the simulation sites.
    if (faults_enabled_ && fault_rng_.chance(fault_rate_)) {
        ++injected_faults_;
        // Sever: the connection drops mid-conversation.
        ::close(write_fd_);
        write_fd_ = -1;
        send_error_ = "transport severed by fault injection "
                      "(BINGO_CHAOS transport site)";
        return false;
    }
    return writeBytes(encodeFrame(type, payload));
}

bool
FramedLink::readMore()
{
    if (peer_gone_)
        return false;
    if (read_fd_ < 0) {
        peer_gone_ = true;
        return false;
    }
    char chunk[65536];
    for (;;) {
        const ssize_t n = ::read(read_fd_, chunk, sizeof(chunk));
        if (n > 0) {
            inbuf_.append(chunk, static_cast<std::size_t>(n));
            return true;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return false;
        // EOF or a hard error: the peer is gone. What is buffered still
        // decodes, so its final frames surface first.
        if (n < 0 && read_error_.empty())
            read_error_ = errnoMessage("read");
        peer_gone_ = true;
        return false;
    }
}

void
FramedLink::decodeBuffered()
{
    std::size_t pos = 0;
    for (;;) {
        const std::size_t newline = inbuf_.find('\n', pos);
        if (newline == std::string::npos &&
            inbuf_.size() - pos <= kMaxHeader)
            break;  // Header may still be arriving.
        const std::string_view header =
            std::string_view(inbuf_).substr(pos, newline - pos);
        unsigned type = 0;
        std::size_t size = 0;
        if (newline == std::string::npos ||
            !parseHeader(header, type, size)) {
            // Pipes do not corrupt bytes, so this is a peer speaking
            // something else — never resync into its output.
            read_error_ = "malformed frame header \"" +
                          printable(header) +
                          "\": link closed (a BINGO_DIST_HOSTS "
                          "template must not print to stdout before "
                          "the worker starts)";
            peer_gone_ = true;
            inbuf_.clear();
            return;
        }
        if (inbuf_.size() - (newline + 1) < size)
            break;  // Payload still in flight.
        decoded_.push_back(
            {static_cast<MsgType>(type), inbuf_.substr(newline + 1, size)});
        pos = newline + 1 + size;
    }
    inbuf_.erase(0, pos);
}

bool
FramedLink::poll(std::vector<Frame> &out)
{
    while (readMore()) {
    }
    decodeBuffered();
    for (Frame &frame : decoded_)
        out.push_back(std::move(frame));
    decoded_.clear();
    return !peer_gone_;
}

bool
FramedLink::readBlocking(Frame &out)
{
    for (;;) {
        decodeBuffered();
        if (!decoded_.empty()) {
            out = std::move(decoded_.front());
            decoded_.pop_front();
            return true;
        }
        if (!readMore() && peer_gone_)
            return false;
    }
}

void
FramedLink::close()
{
    for (int *fd : {&read_fd_, &write_fd_}) {
        if (*fd >= 0) {
            ::close(*fd);
            *fd = -1;
        }
    }
}

} // namespace dist
} // namespace bingo
