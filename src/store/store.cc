#include "store/store.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "obs/failpoint.h"
#include "obs/trace.h"
#include "smt/intern.h"
#include "store/supervisor.h"
#include "summary/spec.h"

namespace rid::store {

namespace {

// ---------------------------------------------------------------------
// Little-endian record codec. Encoders append to a string; decoders
// consume from the front of a string_view and return false on underrun,
// so a semantically garbled (but CRC-clean) payload degrades to "record
// dropped", never UB.

void
putU8(std::string &out, uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

void
putU32(std::string &out, uint32_t v)
{
    for (int k = 0; k < 4; k++)
        out.push_back(static_cast<char>((v >> (8 * k)) & 0xff));
}

void
putU64(std::string &out, uint64_t v)
{
    for (int k = 0; k < 8; k++)
        out.push_back(static_cast<char>((v >> (8 * k)) & 0xff));
}

void
putI32(std::string &out, int32_t v)
{
    putU32(out, static_cast<uint32_t>(v));
}

void
putStr(std::string &out, std::string_view s)
{
    putU32(out, static_cast<uint32_t>(s.size()));
    out.append(s);
}

bool
getU8(std::string_view &in, uint8_t &v)
{
    if (in.empty())
        return false;
    v = static_cast<unsigned char>(in[0]);
    in.remove_prefix(1);
    return true;
}

bool
getU32(std::string_view &in, uint32_t &v)
{
    if (in.size() < 4)
        return false;
    v = 0;
    for (int k = 0; k < 4; k++)
        v |= static_cast<uint32_t>(static_cast<unsigned char>(in[k]))
             << (8 * k);
    in.remove_prefix(4);
    return true;
}

bool
getU64(std::string_view &in, uint64_t &v)
{
    if (in.size() < 8)
        return false;
    v = 0;
    for (int k = 0; k < 8; k++)
        v |= static_cast<uint64_t>(static_cast<unsigned char>(in[k]))
             << (8 * k);
    in.remove_prefix(8);
    return true;
}

bool
getI32(std::string_view &in, int32_t &v)
{
    uint32_t u;
    if (!getU32(in, u))
        return false;
    v = static_cast<int32_t>(u);
    return true;
}

bool
getStr(std::string_view &in, std::string &s)
{
    uint32_t n;
    if (!getU32(in, n) || in.size() < n)
        return false;
    s.assign(in.data(), n);
    in.remove_prefix(n);
    return true;
}

void
putLines(std::string &out, const std::vector<int> &lines)
{
    putU32(out, static_cast<uint32_t>(lines.size()));
    for (int l : lines)
        putI32(out, l);
}

bool
getLines(std::string_view &in, std::vector<int> &lines)
{
    uint32_t n;
    if (!getU32(in, n) || in.size() < 4u * n)
        return false;
    lines.resize(n);
    for (uint32_t k = 0; k < n; k++)
        if (!getI32(in, lines[k]))
            return false;
    return true;
}

void
putStrs(std::string &out, const std::vector<std::string> &v)
{
    putU32(out, static_cast<uint32_t>(v.size()));
    for (const auto &s : v)
        putStr(out, s);
}

bool
getStrs(std::string_view &in, std::vector<std::string> &v)
{
    uint32_t n;
    if (!getU32(in, n) || in.size() < 4u * n)
        return false;
    v.resize(n);
    for (uint32_t k = 0; k < n; k++)
        if (!getStr(in, v[k]))
            return false;
    return true;
}

// ---------------------------------------------------------------------
// Report codec: every BugReport field round-trips byte-exactly, so a
// replayed function contributes reports (and therefore journal lines)
// identical to the run that recorded them.

void
encodeReport(std::string &out, const analysis::BugReport &r)
{
    putStr(out, r.function);
    putStr(out, r.refcount);
    putStr(out, r.domain);
    putU8(out, static_cast<uint8_t>(r.kind));
    putI32(out, r.delta_a);
    putI32(out, r.delta_b);
    putStr(out, r.cons_a);
    putStr(out, r.cons_b);
    putLines(out, r.lines_a);
    putLines(out, r.lines_b);
    putI32(out, r.return_line_a);
    putI32(out, r.return_line_b);
    putU64(out, r.fingerprint);
    putU64(out, r.function_fp);
    putU32(out, static_cast<uint32_t>(r.queries.size()));
    for (const auto &q : r.queries) {
        putU64(out, q.fingerprint);
        putU8(out, static_cast<uint8_t>(q.result));
        putU8(out, q.cache_hit ? 1 : 0);
        putU8(out, q.trivial ? 1 : 0);
        putU64(out, q.fuel);
    }
    putStrs(out, r.callees_a);
    putStrs(out, r.callees_b);
}

bool
decodeReport(std::string_view &in, analysis::BugReport &r)
{
    uint8_t kind;
    uint32_t nq;
    if (!getStr(in, r.function) || !getStr(in, r.refcount) ||
        !getStr(in, r.domain) || !getU8(in, kind) ||
        !getI32(in, r.delta_a) || !getI32(in, r.delta_b) ||
        !getStr(in, r.cons_a) || !getStr(in, r.cons_b) ||
        !getLines(in, r.lines_a) || !getLines(in, r.lines_b) ||
        !getI32(in, r.return_line_a) || !getI32(in, r.return_line_b) ||
        !getU64(in, r.fingerprint) || !getU64(in, r.function_fp) ||
        !getU32(in, nq))
        return false;
    if (kind > static_cast<uint8_t>(analysis::BugKind::Unbalanced) ||
        in.size() < 19u * nq)
        return false;
    r.kind = static_cast<analysis::BugKind>(kind);
    r.queries.resize(nq);
    for (uint32_t k = 0; k < nq; k++) {
        auto &q = r.queries[k];
        uint8_t result, cache_hit, trivial;
        if (!getU64(in, q.fingerprint) || !getU8(in, result) ||
            !getU8(in, cache_hit) || !getU8(in, trivial) ||
            !getU64(in, q.fuel))
            return false;
        if (result > static_cast<uint8_t>(smt::SatResult::Unknown))
            return false;
        q.result = static_cast<smt::SatResult>(result);
        q.cache_hit = cache_hit != 0;
        q.trivial = trivial != 0;
    }
    return getStrs(in, r.callees_a) && getStrs(in, r.callees_b);
}

std::string
encodeReports(const std::vector<analysis::BugReport> &reports)
{
    std::string out;
    putU32(out, static_cast<uint32_t>(reports.size()));
    for (const auto &r : reports)
        encodeReport(out, r);
    return out;
}

bool
decodeReports(std::string_view in, std::vector<analysis::BugReport> &out)
{
    uint32_t n;
    if (!getU32(in, n) || n > (1u << 24))
        return false;
    out.resize(n);
    for (uint32_t k = 0; k < n; k++)
        if (!decodeReport(in, out[k]))
            return false;
    return in.empty();
}

/** The whole file at @p path, read straight into one buffer (empty when
 *  it is missing or unreadable). */
std::string
readFile(const std::string &path)
{
    std::string bytes;
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return bytes;
    std::streamoff size = in.tellg();
    if (size <= 0)
        return bytes;
    bytes.resize(static_cast<size_t>(size));
    in.seekg(0);
    in.read(bytes.data(), size);
    bytes.resize(static_cast<size_t>(in.gcount()));
    return bytes;
}

} // anonymous namespace

uint64_t
configFingerprint(const summary::SummaryDb &db,
                  const analysis::AnalyzerOptions &opts)
{
    using smt::fpBytes;
    using smt::fpCombine;
    // Bump the version whenever the set of hashed inputs changes, so a
    // store written under the old set misses instead of aliasing.
    uint64_t h = fpBytes("rid-store-config-v4");

    // Declared effect domains (name-ordered) and their policies.
    for (const auto &d : db.domains().all()) {
        h = fpCombine(h, fpBytes(d.name));
        h = fpCombine(h, static_cast<uint64_t>(d.policy));
    }
    // Every predefined API spec, by content: editing a spec must miss.
    for (const auto &name : db.predefinedNames()) {
        h = fpCombine(h, fpBytes(name));
        if (const summary::FunctionSummary *s = db.find(name))
            h = fpCombine(h, fpBytes(summary::serializeSummary(*s)));
    }
    // Summaries imported before the run (separate-file seeds).
    h = fpCombine(h, fpBytes(db.saveComputed()));

    // Output-affecting analyzer options. The thread count is excluded:
    // the determinism suite pins it output-identical. The summary-check
    // hook contributes only its presence — two different callbacks hash
    // alike, so runs alternating checks over one store must use distinct
    // directories.
    h = fpCombine(h, static_cast<uint64_t>(
                         static_cast<int64_t>(opts.max_paths)));
    h = fpCombine(h, static_cast<uint64_t>(
                         static_cast<int64_t>(opts.max_subcases)));
    // The category-2 branch budget and the constants 1 stand where
    // since removed options were hashed (the budget, and the toggles
    // for pruning and interning, which were always on), so existing
    // stores keep their fingerprint and still resume.
    h = fpCombine(h, static_cast<uint64_t>(static_cast<int64_t>(
                         analysis::kMaxCat2Branches)));
    h = fpCombine(h, uint64_t{1});
    h = fpCombine(h, static_cast<uint64_t>(opts.classify));
    // compact_summaries changes the stored summary shape, so a resume
    // across a flip must re-analyze.
    h = fpCombine(h, static_cast<uint64_t>(opts.compact_summaries));
    h = fpCombine(h, uint64_t{1});
    h = fpCombine(h, static_cast<uint64_t>(opts.enabled_domains.size()));
    for (const auto &d : opts.enabled_domains)
        h = fpCombine(h, fpBytes(d));
    h = fpCombine(h, static_cast<uint64_t>(bool(opts.summary_check)));
    // Triage toggles (the v3 bump). Stored records hold pre-triage
    // reports and tiers are recomputed after every resume, but the
    // toggles still hash: a replayed run must describe the same
    // configuration it claims to, and distinguishing the fingerprints
    // keeps mixed-triage stores from aliasing.
    h = fpCombine(h, static_cast<uint64_t>(opts.triage));
    h = fpCombine(h, opts.triage_fuel);
    h = fpCombine(h, static_cast<uint64_t>(
                         static_cast<int64_t>(opts.triage_extension_depth)));
    h = fpCombine(h, static_cast<uint64_t>(static_cast<int64_t>(
                         opts.triage_max_extension_functions)));
    return h;
}

AnalysisStore::AnalysisStore(Options opts) : opts_(std::move(opts))
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(opts_.path, ec);
    if (ec)
        throw std::runtime_error("store: cannot create directory " +
                                 opts_.path + ": " + ec.message());
    const std::string log_path = opts_.path + "/analysis.wal";

    uint64_t resume_at = 0;
    bool fresh = !opts_.resume;
    if (opts_.resume) {
        // Frames are views into this one buffer; applyFrame copies only
        // the fields an Entry keeps.
        const std::string bytes = readFile(log_path);
        WalScan scan = scanWal(bytes);
        io_.torn_frames += scan.torn_frames;
        if (!scan.header_ok) {
            // Missing log, wrong magic or wrong version: nothing to
            // trust. Start fresh — the run falls back to clean
            // re-analysis of everything.
            fresh = true;
            if (!bytes.empty())
                io_.torn_frames++;
        } else {
            for (const auto &frame : scan.frames)
                applyFrame(frame);
            resume_at = scan.durable_size;
        }
    }
    if (!writer_.open(log_path, fresh, resume_at))
        throw std::runtime_error("store: cannot open log " + log_path);
    // A fresh log's header is not durable until the first checkpoint.
    unsynced_ = fresh;
}

void
AnalysisStore::applyFrame(const WalFrame &frame)
{
    if (frame.type == kFrameCheckpoint)
        return;
    if (frame.type != kFrameFunction)
        return; // unknown type: forward-compatible skip
    std::string_view in(frame.payload);
    std::string name;
    Entry e;
    uint8_t status, defaulted, has_summary;
    if (!getStr(in, name) || !getU64(in, e.body_fp) ||
        !getU64(in, e.config_fp) || !getU8(in, status) ||
        !getU8(in, defaulted) || !getU32(in, e.attempts) ||
        !getStr(in, e.reason) || !getU8(in, has_summary) ||
        status > static_cast<uint8_t>(analysis::FnStatus::Error)) {
        io_.torn_frames++;
        return;
    }
    e.status = static_cast<analysis::FnStatus>(status);
    e.defaulted = defaulted != 0;
    e.has_summary = has_summary != 0;
    if (e.has_summary && !getStr(in, e.summary_text)) {
        io_.torn_frames++;
        return;
    }
    e.reports_blob.assign(in.data(), in.size());
    // Last record per function wins: a retry's outcome supersedes the
    // failure it retried.
    entries_[name] = std::move(e);
    io_.loaded_records++;
}

analysis::FunctionStore::Action
AnalysisStore::lookup(const Key &key, const LookupContext &ctx,
                      const summary::DomainTable &domains)
{
    Action action; // Plan::Analyze
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key.function);
    if (it == entries_.end())
        return action;
    const Entry &e = it->second;
    if (e.body_fp != key.body_fp || e.config_fp != key.config_fp)
        return action; // changed body or stale configuration

    SupervisorDecision d = superviseResume(
        {e.status, e.attempts, e.reason}, ctx.function_deadline_seconds,
        ctx.function_solver_fuel);
    switch (d.kind) {
      case SupervisorDecision::Kind::Quarantine:
        action.plan = Plan::Quarantine;
        action.reason = std::move(d.note);
        return action;
      case SupervisorDecision::Kind::Retry:
        action.plan = Plan::Retry;
        action.retry_deadline_seconds = d.retry_deadline_seconds;
        action.retry_fuel = d.retry_fuel;
        return action;
      case SupervisorDecision::Kind::LoadEligible:
        break;
    }
    // Classification must agree with the recorded run; a function whose
    // category changed (because some other part of the corpus or the
    // specs changed around it) is re-analyzed.
    if (e.defaulted != !ctx.want_analyze)
        return action;
    action.status = e.status;
    action.reason = e.reason;
    action.defaulted = e.defaulted;
    if (e.defaulted) {
        action.plan = Plan::Load;
        return action;
    }
    if (!e.has_summary)
        return action;
    try {
        summary::DomainTable known = domains;
        summary::ParsedSpec spec =
            summary::parseSpecText(e.summary_text, &known);
        if (spec.summaries.size() != 1)
            return action;
        action.summary = std::move(spec.summaries[0].summary);
    } catch (const std::exception &) {
        return action; // undecodable summary: re-analyze this key
    }
    if (!decodeReports(e.reports_blob, action.reports)) {
        action.reports.clear();
        return action;
    }
    action.plan = Plan::Load;
    return action;
}

size_t
AnalysisStore::record(const Key &key, analysis::FnStatus status,
                      const std::string &reason, bool defaulted,
                      const summary::FunctionSummary *summary,
                      const std::vector<analysis::BugReport> &reports)
{
    try {
        // Chaos-suite injection point; an armed "store.append" fault is
        // absorbed right here, so a failing store never alters analysis.
        obs::failpoint("store.append");

        Entry e;
        e.body_fp = key.body_fp;
        e.config_fp = key.config_fp;
        e.status = status;
        e.defaulted = defaulted;
        e.reason = reason;
        if (summary) {
            e.has_summary = true;
            e.summary_text = summary::serializeSummary(*summary);
        }

        std::string payload;
        std::lock_guard<std::mutex> lock(mutex_);
        bool failure = status == analysis::FnStatus::Timeout ||
                       status == analysis::FnStatus::Degraded ||
                       status == analysis::FnStatus::Error;
        if (failure) {
            auto it = entries_.find(key.function);
            uint32_t prior = 0;
            if (it != entries_.end() && it->second.body_fp == key.body_fp &&
                it->second.config_fp == key.config_fp)
                prior = it->second.attempts;
            e.attempts = prior + 1;
        }
        putStr(payload, key.function);
        putU64(payload, e.body_fp);
        putU64(payload, e.config_fp);
        putU8(payload, static_cast<uint8_t>(e.status));
        putU8(payload, e.defaulted ? 1 : 0);
        putU32(payload, e.attempts);
        putStr(payload, e.reason);
        putU8(payload, e.has_summary ? 1 : 0);
        if (e.has_summary)
            putStr(payload, e.summary_text);
        e.reports_blob = encodeReports(reports);
        payload += e.reports_blob;

        size_t n = kFrameHeaderSize + payload.size();
        if (!writer_.appendFrame(kFrameFunction, payload)) {
            io_.failed_writes++;
            return 0;
        }
        entries_[key.function] = std::move(e);
        io_.bytes_appended += n;
        unsynced_ = true;
        return n;
    } catch (const std::exception &) {
        std::lock_guard<std::mutex> lock(mutex_);
        io_.failed_writes++;
        return 0;
    }
}

void
AnalysisStore::checkpoint(uint64_t tag)
{
    try {
        std::lock_guard<std::mutex> lock(mutex_);
        // Nothing appended since the last synced checkpoint: every record
        // is already durable, so a frame and an fsync would commit
        // nothing.
        if (!unsynced_)
            return;
        obs::Span span("store", "checkpoint");
        std::string payload;
        putU64(payload, tag);
        putU64(payload, static_cast<uint64_t>(entries_.size()));
        if (!writer_.appendFrame(kFrameCheckpoint, payload) ||
            !writer_.sync()) {
            io_.failed_writes++;
            return;
        }
        io_.bytes_appended += kFrameHeaderSize + payload.size();
        unsynced_ = false;
    } catch (const std::exception &) {
        std::lock_guard<std::mutex> lock(mutex_);
        io_.failed_writes++;
    }
}

analysis::FunctionStore::IoStats
AnalysisStore::ioStats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return io_;
}

} // namespace rid::store
