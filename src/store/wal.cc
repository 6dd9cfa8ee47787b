#include "store/wal.h"

#include <array>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace rid::store {

namespace {

std::array<uint32_t, 256>
makeCrcTable()
{
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; i++) {
        uint32_t c = i;
        for (int k = 0; k < 8; k++)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

void
putLe32(std::string &out, uint32_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    out.push_back(static_cast<char>((v >> 24) & 0xff));
}

uint32_t
getLe32(std::string_view bytes, size_t pos)
{
    auto b = [&](size_t k) {
        return static_cast<uint32_t>(static_cast<unsigned char>(bytes[pos + k]));
    };
    return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

/** Offset of the next frame-magic candidate at or after @p from. */
size_t
findFrameMagic(std::string_view bytes, size_t from)
{
    std::string_view needle(kFrameMagic, sizeof(kFrameMagic));
    return bytes.find(needle, from);
}

} // anonymous namespace

uint32_t
crc32(const void *data, size_t n, uint32_t seed)
{
    static const std::array<uint32_t, 256> table = makeCrcTable();
    uint32_t c = seed ^ 0xFFFFFFFFu;
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; i++)
        c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::string
encodeWalHeader()
{
    std::string out(kWalMagic, sizeof(kWalMagic));
    putLe32(out, kWalVersion);
    putLe32(out, 0); // reserved
    return out;
}

std::string
encodeWalFrame(uint8_t type, std::string_view payload)
{
    std::string out(kFrameMagic, sizeof(kFrameMagic));
    out.push_back(static_cast<char>(type));
    putLe32(out, static_cast<uint32_t>(payload.size()));
    putLe32(out, crc32(payload.data(), payload.size()));
    out.append(payload);
    return out;
}

WalScan
scanWal(std::string_view bytes)
{
    WalScan out;
    if (bytes.size() < kWalHeaderSize ||
        std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0 ||
        getLe32(bytes, sizeof(kWalMagic)) != kWalVersion)
        return out;
    out.header_ok = true;
    out.durable_size = kWalHeaderSize;

    size_t pos = kWalHeaderSize;
    while (pos < bytes.size()) {
        bool valid = false;
        size_t remaining = bytes.size() - pos;
        if (remaining >= kFrameHeaderSize &&
            std::memcmp(bytes.data() + pos, kFrameMagic,
                        sizeof(kFrameMagic)) == 0) {
            uint8_t type = static_cast<unsigned char>(pos + 4 < bytes.size()
                                                          ? bytes[pos + 4]
                                                          : 0);
            uint32_t len = getLe32(bytes, pos + 5);
            uint32_t crc = getLe32(bytes, pos + 9);
            if (len <= remaining - kFrameHeaderSize) {
                std::string_view payload =
                    bytes.substr(pos + kFrameHeaderSize, len);
                if (crc32(payload.data(), payload.size()) == crc) {
                    WalFrame frame;
                    frame.type = type;
                    frame.payload = payload;
                    frame.offset = pos;
                    out.frames.push_back(std::move(frame));
                    pos += kFrameHeaderSize + len;
                    out.durable_size = pos;
                    valid = true;
                }
            }
        }
        if (!valid) {
            // A torn tail, a flipped byte, or garbage between frames.
            // Count the drop and resync on the next magic candidate; the
            // CRC re-validates whatever the scan lands on, so a false
            // magic inside a corrupt payload just iterates once more.
            out.torn_frames++;
            size_t next = findFrameMagic(bytes, pos + 1);
            if (next == std::string_view::npos)
                break;
            pos = next;
        }
    }
    return out;
}

WalWriter::~WalWriter()
{
    close();
}

void
WalWriter::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
WalWriter::writeAll(std::string_view bytes)
{
    size_t done = 0;
    while (done < bytes.size()) {
        ssize_t n = ::write(fd_, bytes.data() + done, bytes.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<size_t>(n);
    }
    bytes_ += bytes.size();
    return true;
}

bool
WalWriter::open(const std::string &path, bool fresh, uint64_t resume_at)
{
    close();
    int flags = O_WRONLY | O_CREAT | O_CLOEXEC | (fresh ? O_TRUNC : 0);
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ < 0)
        return false;
    bytes_ = 0;
    if (fresh)
        return writeAll(encodeWalHeader());
    // Resume: drop any torn tail found by the recovery scan, then append.
    if (::ftruncate(fd_, static_cast<off_t>(resume_at)) != 0 ||
        ::lseek(fd_, 0, SEEK_END) < 0) {
        close();
        return false;
    }
    bytes_ = resume_at;
    return true;
}

bool
WalWriter::appendFrame(uint8_t type, std::string_view payload)
{
    if (fd_ < 0)
        return false;
    return writeAll(encodeWalFrame(type, payload));
}

bool
WalWriter::sync()
{
    return fd_ >= 0 && ::fsync(fd_) == 0;
}

} // namespace rid::store
