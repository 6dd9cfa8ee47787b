/**
 * @file
 * Append-only, CRC32-framed write-ahead log for the analysis store.
 *
 * On-disk layout (all integers little-endian):
 *
 *     header  := "RIDSTORE" u32:version u32:reserved          (16 bytes)
 *     frame   := "RIDF" u8:type u32:payload_len u32:crc32     (13 bytes)
 *                payload_len bytes of payload
 *
 * The log is only ever appended to; durability is committed at
 * checkpoint boundaries (WalWriter::sync, an fsync). Recovery
 * (scanLog) verifies every frame's CRC, drops any torn tail, and
 * resynchronizes past corrupt frames by scanning forward for the next
 * frame magic — a flipped byte loses only the record(s) it lands in,
 * never the rest of the log. Format and recovery semantics:
 * docs/STORE.md.
 */

#ifndef RID_STORE_WAL_H
#define RID_STORE_WAL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rid::store {

/** CRC-32 (IEEE 802.3 polynomial, the zlib crc32) of @p n bytes. */
uint32_t crc32(const void *data, size_t n, uint32_t seed = 0);

constexpr char kWalMagic[8] = {'R', 'I', 'D', 'S', 'T', 'O', 'R', 'E'};
constexpr uint32_t kWalVersion = 1;
constexpr char kFrameMagic[4] = {'R', 'I', 'D', 'F'};
constexpr size_t kWalHeaderSize = 16;
constexpr size_t kFrameHeaderSize = 13;

/** One recovered frame. */
struct WalFrame
{
    uint8_t type = 0;
    /** A view into the bytes handed to scanWal: valid only while they
     *  are (recovery decodes each frame straight out of the one file
     *  buffer instead of copying it). */
    std::string_view payload;
    /** Byte offset of the frame header in the log (tests corrupt
     *  specific frames through this). */
    uint64_t offset = 0;
};

/** Serialized header / frame bytes (pure encoding; no I/O). */
std::string encodeWalHeader();
std::string encodeWalFrame(uint8_t type, std::string_view payload);

/** Result of a recovery scan over raw log bytes. */
struct WalScan
{
    std::vector<WalFrame> frames;
    /** Validation failures during the scan: CRC mismatch, bad frame
     *  magic after a valid frame, impossible length, or a torn tail. */
    size_t torn_frames = 0;
    /** File header magic and version matched. */
    bool header_ok = false;
    /** Offset just past the last valid frame (header size when no frame
     *  survived) — the safe append position after recovery. */
    uint64_t durable_size = 0;
};

/**
 * Recovery scan: verify the header and every frame CRC, drop any torn
 * tail, resync past corruption. Never throws; a log that fails header
 * validation yields header_ok == false and no frames. The frames' payloads
 * point into @p bytes, which must outlive the result.
 */
WalScan scanWal(std::string_view bytes);

/** Appending writer over a log file (POSIX fd so checkpoints can
 *  fsync). All methods return false on I/O failure and never throw. */
class WalWriter
{
  public:
    WalWriter() = default;
    ~WalWriter();
    WalWriter(const WalWriter &) = delete;
    WalWriter &operator=(const WalWriter &) = delete;

    /**
     * Open @p path for appending. With @p fresh the file is truncated
     * and a new header written; otherwise it is truncated to
     * @p resume_at (the durable_size of a prior scan, dropping any torn
     * tail) and appending continues from there.
     */
    bool open(const std::string &path, bool fresh, uint64_t resume_at = 0);

    bool appendFrame(uint8_t type, std::string_view payload);

    /** Durability barrier: flush appended frames to stable storage. */
    bool sync();

    /** Bytes in the log as of the last successful append. */
    uint64_t size() const { return bytes_; }

    void close();

  private:
    bool writeAll(std::string_view bytes);

    int fd_ = -1;
    uint64_t bytes_ = 0;
};

} // namespace rid::store

#endif // RID_STORE_WAL_H
