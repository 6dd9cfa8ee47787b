#include "obs/provenance.h"

#include <algorithm>
#include <cctype>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/json_reader.h"
#include "obs/json_writer.h"

namespace rid::obs {

std::string
fpHex(uint64_t fp)
{
    static const char *digits = "0123456789abcdef";
    std::string out = "0x";
    for (int shift = 60; shift >= 0; shift -= 4)
        out += digits[(fp >> shift) & 0xf];
    return out;
}

bool
parseFp(const std::string &text, uint64_t &out)
{
    size_t start = 0;
    if (text.size() >= 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X'))
        start = 2;
    if (start == text.size() || text.size() - start > 16)
        return false;
    uint64_t v = 0;
    for (size_t i = start; i < text.size(); i++) {
        char c = static_cast<char>(std::tolower(text[i]));
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return false;
        v = (v << 4) | static_cast<uint64_t>(digit);
    }
    out = v;
    return true;
}

namespace {

void
writeWitnessPath(JsonWriter &w, const WitnessPath &p)
{
    w.beginObject();
    w.key("cons").value(p.cons);
    w.key("delta").value(p.delta);
    w.key("lines").beginArray();
    for (int line : p.lines)
        w.value(line);
    w.endArray();
    w.key("return_line").value(p.return_line);
    w.key("callees").beginArray();
    for (const auto &c : p.callees)
        w.value(c);
    w.endArray();
    w.endObject();
}

} // anonymous namespace

std::string
ProvenanceRecord::json() const
{
    JsonWriter w;
    w.beginObject();
    w.key("fingerprint").value(fpHex(fingerprint));
    w.key("tool").value(tool);
    w.key("function").value(function);
    w.key("function_fp").value(fpHex(function_fp));
    w.key("domain").value(domain);
    w.key("kind").value(kind);
    w.key("counter").value(counter);
    w.key("status").value(status);
    w.key("budget").value(budget);
    // Triage keys are emitted only once a tier was assigned: pre-triage
    // journals stay byte-identical to the pre-triage schema, and the
    // optional parse below round-trips both shapes.
    if (!tier.empty()) {
        w.key("tier").value(tier);
        w.key("rank").value(rank);
    }
    w.key("path_a");
    writeWitnessPath(w, path_a);
    if (has_path_b) {
        w.key("path_b");
        writeWitnessPath(w, path_b);
    }
    w.key("queries").beginArray();
    for (const auto &q : queries) {
        w.beginObject();
        w.key("fingerprint").value(fpHex(q.fingerprint));
        w.key("result").value(q.result);
        w.key("cache_hit").value(q.cache_hit);
        w.key("trivial").value(q.trivial);
        w.key("fuel").value(q.fuel);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
renderJournal(std::vector<ProvenanceRecord> records)
{
    // Deterministic ordering regardless of production order (thread
    // scheduling): primary key the report fingerprint, tiebreak on the
    // full rendered line so identical-fingerprint records (hash
    // collisions, duplicate reports) still land in one fixed order.
    std::vector<std::pair<uint64_t, std::string>> lines;
    lines.reserve(records.size());
    for (const auto &r : records)
        lines.emplace_back(r.fingerprint, r.json());
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const auto &[fp, line] : lines) {
        out += line;
        out += '\n';
    }
    return out;
}

// ----------------------------------------------------------------- parse
//
// Each journal line is one document for the strict reader of
// obs/json_reader.h; a malformed line throws "provenance journal: <what>
// at offset <N>".

namespace {

const JsonValue &
require(const JsonValue &obj, const std::string &key)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        throw std::runtime_error(
            "provenance journal: record missing key '" + key + "'");
    return *v;
}

uint64_t
fpOf(const JsonValue &v)
{
    uint64_t fp = 0;
    if (!parseFp(v.string, fp))
        throw std::runtime_error(
            "provenance journal: bad fingerprint '" + v.string + "'");
    return fp;
}

WitnessPath
witnessOf(const JsonValue &v)
{
    WitnessPath p;
    p.cons = require(v, "cons").string;
    p.delta = static_cast<int>(require(v, "delta").number);
    for (const auto &line : require(v, "lines").array)
        p.lines.push_back(static_cast<int>(line.number));
    p.return_line = static_cast<int>(require(v, "return_line").number);
    for (const auto &c : require(v, "callees").array)
        p.callees.push_back(c.string);
    return p;
}

ProvenanceRecord
recordOf(const JsonValue &v)
{
    ProvenanceRecord r;
    r.fingerprint = fpOf(require(v, "fingerprint"));
    r.tool = require(v, "tool").string;
    r.function = require(v, "function").string;
    r.function_fp = fpOf(require(v, "function_fp"));
    r.domain = require(v, "domain").string;
    r.kind = require(v, "kind").string;
    r.counter = require(v, "counter").string;
    r.status = require(v, "status").string;
    r.budget = require(v, "budget").string;
    if (const JsonValue *tier = v.find("tier")) {
        r.tier = tier->string;
        r.rank = static_cast<int>(require(v, "rank").number);
    }
    r.path_a = witnessOf(require(v, "path_a"));
    if (const JsonValue *pb = v.find("path_b")) {
        r.has_path_b = true;
        r.path_b = witnessOf(*pb);
    }
    for (const auto &q : require(v, "queries").array) {
        QueryRecord qr;
        qr.fingerprint = fpOf(require(q, "fingerprint"));
        qr.result = require(q, "result").string;
        qr.cache_hit = require(q, "cache_hit").boolean;
        qr.trivial = require(q, "trivial").boolean;
        qr.fuel = static_cast<uint64_t>(require(q, "fuel").number);
        r.queries.push_back(std::move(qr));
    }
    return r;
}

} // anonymous namespace

std::vector<ProvenanceRecord>
parseJournal(const std::string &text)
{
    std::vector<ProvenanceRecord> out;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        out.push_back(recordOf(parseJson(line, "provenance journal")));
    }
    return out;
}

JournalRecovery
parseJournalTolerant(const std::string &text)
{
    JournalRecovery out;
    std::istringstream lines(text);
    std::string line;
    size_t lineno = 0;
    constexpr size_t kMaxErrors = 8;
    while (std::getline(lines, line)) {
        lineno++;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        try {
            out.records.push_back(
                recordOf(parseJson(line, "provenance journal")));
        } catch (const std::exception &e) {
            out.skipped_lines++;
            if (out.errors.size() < kMaxErrors)
                out.errors.push_back("line " + std::to_string(lineno) +
                                     ": " + e.what());
        }
    }
    return out;
}

// --------------------------------------------------------------- explain

namespace {

std::string
describeWitness(const WitnessPath &p, const char *label)
{
    std::ostringstream os;
    os << "  path " << label << ": net " << (p.delta >= 0 ? "+" : "")
       << p.delta;
    if (!p.lines.empty()) {
        os << ", change lines";
        for (int line : p.lines)
            os << " " << line;
    }
    if (p.return_line)
        os << ", returns at line " << p.return_line;
    os << "\n    when: " << (p.cons.empty() ? "(none)" : p.cons) << "\n";
    if (!p.callees.empty()) {
        os << "    via callee summaries:";
        for (const auto &c : p.callees)
            os << " " << c;
        os << "\n";
    }
    return os.str();
}

} // anonymous namespace

std::string
explainText(const ProvenanceRecord &r)
{
    std::ostringstream os;
    os << "report " << fpHex(r.fingerprint) << " [" << r.tool << "]\n";
    os << "  " << r.function << ": " << r.kind << " " << r.domain
       << " counter " << r.counter << " (function body "
       << fpHex(r.function_fp) << ")\n";
    os << describeWitness(r.path_a, "A");
    if (r.has_path_b)
        os << describeWitness(r.path_b, "B");
    if (r.queries.empty()) {
        os << "  decided without solver queries (must-analysis)\n";
    } else {
        os << "  decided by " << r.queries.size() << " solver quer"
           << (r.queries.size() == 1 ? "y" : "ies") << ":\n";
        for (const auto &q : r.queries) {
            os << "    " << fpHex(q.fingerprint) << " -> " << q.result
               << (q.trivial ? " (trivial)"
                             : q.cache_hit ? " (cache hit)" : " (solved)")
               << ", fuel " << q.fuel << "\n";
        }
    }
    if (!r.tier.empty())
        os << "  triage: " << r.tier << ", rank " << r.rank << "\n";
    os << "  analysis status: " << r.status;
    if (!r.budget.empty())
        os << " (" << r.budget << ")";
    os << "\n";
    return os.str();
}

// ------------------------------------------------------------- diff-runs

RunDiff
diffRuns(const std::vector<ProvenanceRecord> &old_run,
         const std::vector<ProvenanceRecord> &new_run)
{
    auto ordered = [](std::vector<ProvenanceRecord> v) {
        std::sort(v.begin(), v.end(),
                  [](const ProvenanceRecord &a, const ProvenanceRecord &b) {
                      if (a.fingerprint != b.fingerprint)
                          return a.fingerprint < b.fingerprint;
                      return a.json() < b.json();
                  });
        return v;
    };
    // First record per fingerprint in the old run; the within-run dedup
    // below keeps the partitions one-record-per-fingerprint too.
    std::map<uint64_t, const ProvenanceRecord *> old_by_fp;
    for (const auto &r : old_run)
        old_by_fp.emplace(r.fingerprint, &r);
    std::set<uint64_t> new_fps;
    for (const auto &r : new_run)
        new_fps.insert(r.fingerprint);

    RunDiff diff;
    std::set<uint64_t> emitted;
    for (const auto &r : new_run) {
        if (!emitted.insert(r.fingerprint).second)
            continue;  // fingerprint dedup within the run
        auto it = old_by_fp.find(r.fingerprint);
        if (it == old_by_fp.end()) {
            diff.added.push_back(r);
        } else if (it->second->tier != r.tier) {
            // Same report, different triage verdict: a tier flip is a
            // reclassification, not a new + resolved pair.
            diff.reclassified.emplace_back(*it->second, r);
        } else {
            diff.persisting.push_back(r);
        }
    }
    emitted.clear();
    for (const auto &r : old_run) {
        if (!emitted.insert(r.fingerprint).second)
            continue;
        if (!new_fps.count(r.fingerprint))
            diff.resolved.push_back(r);
    }
    diff.added = ordered(std::move(diff.added));
    diff.resolved = ordered(std::move(diff.resolved));
    diff.persisting = ordered(std::move(diff.persisting));
    std::sort(diff.reclassified.begin(), diff.reclassified.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.fingerprint != b.second.fingerprint)
                      return a.second.fingerprint < b.second.fingerprint;
                  return a.second.json() < b.second.json();
              });
    return diff;
}

namespace {

void
describePartition(std::ostringstream &os, const char *name,
                  const std::vector<ProvenanceRecord> &records)
{
    os << name << " (" << records.size() << "):\n";
    for (const auto &r : records) {
        os << "  " << fpHex(r.fingerprint) << " " << r.function << ": "
           << r.kind << " " << r.domain << " " << r.counter << " ["
           << r.tool << "]\n";
    }
}

} // anonymous namespace

std::string
diffText(const RunDiff &diff)
{
    std::ostringstream os;
    describePartition(os, "new", diff.added);
    describePartition(os, "resolved", diff.resolved);
    if (!diff.reclassified.empty()) {
        // Only printed when present, so pre-triage diffs keep the
        // three-partition output scripts already grep.
        os << "reclassified (" << diff.reclassified.size() << "):\n";
        for (const auto &[prev, cur] : diff.reclassified) {
            os << "  " << fpHex(cur.fingerprint) << " " << cur.function
               << ": " << cur.kind << " " << cur.domain << " "
               << cur.counter << " ["
               << (prev.tier.empty() ? "untriaged" : prev.tier) << " -> "
               << (cur.tier.empty() ? "untriaged" : cur.tier) << "]\n";
        }
    }
    describePartition(os, "persisting", diff.persisting);
    return os.str();
}

// ------------------------------------------------------------ exit flush

namespace {

struct FlushEntry
{
    std::string path;
    std::function<std::string()> render;
};

struct FlushRegistry
{
    std::mutex mutex;
    std::map<int, FlushEntry> entries;
    int next_id = 1;
    bool handlers_installed = false;
};

FlushRegistry &
flushRegistry()
{
    // Leaked intentionally: the atexit/signal handlers may run after
    // static destructors would have torn a normal global down.
    static FlushRegistry *reg = new FlushRegistry();
    return *reg;
}

extern "C" void
provenanceSignalFlush(int sig)
{
    // Best effort: rendering and ofstream are not async-signal-safe,
    // but at this point the process is dying anyway — salvaging the
    // partial journal is strictly better than losing it.
    flushRegisteredExits();
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

void
installFlushHandlers(FlushRegistry &reg)
{
    if (reg.handlers_installed)
        return;
    reg.handlers_installed = true;
    std::atexit(flushRegisteredExits);
    // Only take over default dispositions; a host application's own
    // SIGINT/SIGTERM handling (e.g. a daemon's shutdown path) wins.
    for (int sig : {SIGINT, SIGTERM}) {
        auto prev = std::signal(sig, provenanceSignalFlush);
        if (prev != SIG_DFL && prev != SIG_ERR)
            std::signal(sig, prev);
    }
}

} // anonymous namespace

int
registerExitFlush(std::string path, std::function<std::string()> render)
{
    FlushRegistry &reg = flushRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    installFlushHandlers(reg);
    int id = reg.next_id++;
    reg.entries[id] = FlushEntry{std::move(path), std::move(render)};
    return id;
}

void
unregisterExitFlush(int id)
{
    FlushRegistry &reg = flushRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.entries.erase(id);
}

void
flushRegisteredExits()
{
    FlushRegistry &reg = flushRegistry();
    std::map<int, FlushEntry> entries;
    {
        std::lock_guard<std::mutex> lock(reg.mutex);
        entries.swap(reg.entries);
    }
    for (auto &[id, entry] : entries) {
        try {
            std::ofstream out(entry.path);
            if (out)
                out << entry.render();
        } catch (...) {
            // Per-entry isolation: one faulting renderer must not cost
            // the other registered exports their flush.
        }
    }
}

} // namespace rid::obs
