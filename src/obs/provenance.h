/**
 * @file
 * Report provenance: stable fingerprints, witness evidence, and the
 * JSONL provenance journal.
 *
 * Every bug report (RID's and the cpychecker baseline's) carries a
 * stable 64-bit fingerprint derived from the function-body fingerprint
 * and the normalized witness shape — byte-stable across thread counts
 * and cache settings — plus a structured provenance record: the
 * witness path pair (constraints, line spans, net changes), the solver
 * queries that decided it (with cache hit/miss and fuel spent), the
 * callee-summary instantiation chain, and budget/degradation context.
 *
 * Records stream to a JSONL journal (one record per line, deterministic
 * ordering, same discipline as the Chrome-trace export) gated by
 * AnalyzerOptions::provenance_path, and surface through `ridc explain`
 * (human-readable witness narrative) and `ridc diff-runs` (new /
 * resolved / persisting partition by fingerprint — the dedup primitive
 * incremental reanalysis and triage ranking consume). Schema reference:
 * docs/PROVENANCE.md.
 *
 * This header is plain data plus pure rendering/parsing — it sits at
 * the bottom of the library stack (obs) and knows nothing about the
 * analysis types; the analyzer and the baseline convert their reports
 * into ProvenanceRecords (core/rid.h provenanceRecords(),
 * baseline::provenanceRecords()).
 *
 * The exit-flush registry (registerExitFlush) is the companion
 * robustness piece: trace/metrics/provenance exports registered with it
 * are re-rendered and written on abnormal exit (atexit + best-effort
 * SIGINT/SIGTERM handlers), so budget-expired and chaos-suite runs keep
 * their partial journals.
 */

#ifndef RID_OBS_PROVENANCE_H
#define RID_OBS_PROVENANCE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace rid::obs {

/** One witness path of a report: constraint, net change and spans. */
struct WitnessPath
{
    /** Rendered path constraint. */
    std::string cons;
    /** Net counter change along the path. */
    int delta = 0;
    /** Source lines of the counter-changing call sites. */
    std::vector<int> lines;
    /** Source line of the return statement ending the path. */
    int return_line = 0;
    /** Callee-summary instantiation chain, in execution order. */
    std::vector<std::string> callees;

    bool operator==(const WitnessPath &o) const
    {
        return cons == o.cons && delta == o.delta && lines == o.lines &&
               return_line == o.return_line && callees == o.callees;
    }
};

/** One solver query that decided a report (smt::QueryInfo, rendered). */
struct QueryRecord
{
    /** Formula fingerprint — the shared query-cache key. */
    uint64_t fingerprint = 0;
    /** "sat", "unsat" or "unknown". */
    std::string result;
    bool cache_hit = false;
    bool trivial = false;
    /** Solver fuel the query consumed (0 for trivial checks). */
    uint64_t fuel = 0;

    bool operator==(const QueryRecord &o) const
    {
        return fingerprint == o.fingerprint && result == o.result &&
               cache_hit == o.cache_hit && trivial == o.trivial &&
               fuel == o.fuel;
    }
};

/** Full provenance of one report. */
struct ProvenanceRecord
{
    /** Emitting tool: "rid" or "cpychecker". */
    std::string tool = "rid";
    std::string function;
    /** ir::Function::fingerprint() of the reported function. */
    uint64_t function_fp = 0;
    /** The stable report fingerprint (cross-run dedup key). */
    uint64_t fingerprint = 0;
    /** Effect domain of the counter ("ref", "lock", "alloc", ...). */
    std::string domain;
    /** "inconsistent", "unbalanced" or "escape". */
    std::string kind;
    /** The counter, rendered (e.g. "[dev].pm"). */
    std::string counter;
    WitnessPath path_a;
    /** Unbalanced/escape reports have a single witness path. */
    bool has_path_b = false;
    WitnessPath path_b;
    /** Queries that decided the report (empty for must-analysis). */
    std::vector<QueryRecord> queries;
    /** How the function's analysis ended ("ok", "truncated", ...). */
    std::string status = "ok";
    /** Budget/degradation context (diagnostic reason; empty if clean). */
    std::string budget;
    /** Triage tier slug ("confirmed", "unverified", "low-confidence",
     *  "refuted"); empty when the triage pass did not run. The deciding
     *  refutation queries appear in `queries` alongside the base pass's
     *  evidence. Excluded from the fingerprint, so a tier flip diffs as
     *  `reclassified`, not as a new + resolved pair. */
    std::string tier;
    /** Deterministic 1-based triage rank (0 when triage did not run). */
    int rank = 0;

    /** Render as one JSONL journal line (no trailing newline). */
    std::string json() const;

    bool operator==(const ProvenanceRecord &o) const
    {
        return tool == o.tool && function == o.function &&
               function_fp == o.function_fp &&
               fingerprint == o.fingerprint && domain == o.domain &&
               kind == o.kind && counter == o.counter &&
               path_a == o.path_a && has_path_b == o.has_path_b &&
               path_b == o.path_b && queries == o.queries &&
               status == o.status && budget == o.budget &&
               tier == o.tier && rank == o.rank;
    }
};

/** Canonical rendering of a 64-bit fingerprint: "0x" + 16 hex digits. */
std::string fpHex(uint64_t fp);

/** Parse a fingerprint in fpHex form (0x-prefixed or bare hex).
 *  @return false if @p text is not a valid fingerprint */
bool parseFp(const std::string &text, uint64_t &out);

/**
 * Render records as a JSONL journal: one record per line, ordered by
 * (fingerprint, line content) so the journal is byte-deterministic for
 * a given record set regardless of production order.
 */
std::string renderJournal(std::vector<ProvenanceRecord> records);

/**
 * Parse a JSONL journal produced by renderJournal(). Blank lines are
 * skipped. @throws std::runtime_error on malformed input.
 */
std::vector<ProvenanceRecord> parseJournal(const std::string &text);

/** Result of a tolerant journal parse: every complete record, plus what
 *  had to be dropped to get them. */
struct JournalRecovery
{
    std::vector<ProvenanceRecord> records;
    /** Lines dropped as malformed (typically a torn tail from a killed
     *  writer, but any undecodable line counts). */
    size_t skipped_lines = 0;
    /** Per-dropped-line descriptions ("line N: <parse error>"), capped
     *  at a handful so a shredded journal stays reportable. */
    std::vector<std::string> errors;
};

/**
 * Torn-tail-tolerant variant of parseJournal(): malformed lines — e.g.
 * the partially written last line of a journal whose writer was killed
 * mid-flush — are skipped and counted instead of aborting the parse.
 * Every complete record is recovered. Strict parseJournal() remains the
 * round-trip oracle for tests.
 */
JournalRecovery parseJournalTolerant(const std::string &text);

/** Human-readable witness narrative of one record (ridc explain). */
std::string explainText(const ProvenanceRecord &record);

/** Partition of two runs' reports by fingerprint. */
struct RunDiff
{
    /** In the new run only. */
    std::vector<ProvenanceRecord> added;
    /** In the old run only. */
    std::vector<ProvenanceRecord> resolved;
    /** In both with the same triage tier (the new run's record kept). */
    std::vector<ProvenanceRecord> persisting;
    /** In both but with a different triage tier: (old, new) pairs. A
     *  report whose identity is unchanged but whose confidence moved —
     *  e.g. confirmed in the last run, refuted now — is a
     *  reclassification, not a new + resolved pair. */
    std::vector<std::pair<ProvenanceRecord, ProvenanceRecord>> reclassified;
};

/** Diff two runs' records by fingerprint (duplicates collapse). Each
 *  partition is ordered by (fingerprint, content). */
RunDiff diffRuns(const std::vector<ProvenanceRecord> &old_run,
                 const std::vector<ProvenanceRecord> &new_run);

/** Render a RunDiff as a human-readable summary (ridc diff-runs). */
std::string diffText(const RunDiff &diff);

/** @name Exit-flush registry
 * Best-effort export flushing on abnormal exit. Register a path and a
 * render callback; if the process exits (atexit) or receives
 * SIGINT/SIGTERM while the registration is live, the callback is
 * invoked and its result written to the path. Unregister after the
 * normal write so clean runs never double-write. The render callback
 * runs outside async-signal-safety guarantees — this is a best-effort
 * salvage of partial observability data, not a transactional commit.
 * @{ */

/** @return a registration id for unregisterExitFlush() */
int registerExitFlush(std::string path,
                      std::function<std::string()> render);

void unregisterExitFlush(int id);

/** Write every live registration now (idempotent; also the atexit and
 *  signal handler body). Render faults are swallowed per entry. */
void flushRegisteredExits();

/** @} */

} // namespace rid::obs

#endif // RID_OBS_PROVENANCE_H
