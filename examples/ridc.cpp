/**
 * @file
 * ridc — a command-line front door to the checker.
 *
 * Checks Kernel-C source files against refcount API specifications:
 *
 *     ridc --spec dpm.spec [--spec more.spec] file1.c file2.c ...
 *
 * Subcommands over the provenance journal (--provenance FILE):
 *
 *     ridc explain <fingerprint|all> <journal>
 *     ridc diff-runs <old-journal> <new-journal>
 *
 * Options:
 *   --spec FILE        load predefined summaries (repeatable)
 *   --builtin-dpm      load the bundled Linux DPM specs
 *   --builtin-pyc      load the bundled Python/C specs
 *   --import FILE      import previously computed summaries
 *   --export FILE      write computed summaries for later --import
 *   --domains a,b      analyze only the listed effect domains
 *   --list-domains     print the declared effect domains and exit
 *   --max-paths N      path cap per function (default 100)
 *   --max-subcases N   subcase cap per path (default 10)
 *   --threads N        analyze independent SCCs with N workers (at
 *                      most 256)
 *   --deadline S       wall-clock budget for the whole run (seconds;
 *                      functions reached after expiry are defaulted)
 *   --fn-deadline S    per-function wall-clock budget (seconds)
 *   --solver-fuel N    per-function solver query budget
 *   --failpoints SPEC  arm fault injection (site[@fn]=mode,...)
 *   --provenance FILE  write the report provenance journal (JSONL)
 *   --store DIR        persist analysis outcomes to a durable store
 *   --resume           replay unchanged functions from --store DIR
 *                      instead of re-analyzing them
 *   --keep-going       an unreadable or unparseable file is skipped (and
 *                      reported) instead of aborting the scan
 *   --no-classify      analyze every function (skip Section 5.2 tiers)
 *   --model-bits       Section 5.4 extension: model `x & CONST` bit tests
 *   --model-stores     Section 5.4 extension: track caller-visible stores
 *   --triage           run the automated triage pass: every report is
 *                      re-queried at higher precision and stamped with a
 *                      confidence tier and a deterministic rank
 *   --triage-fuel N    solver fuel per triaged report (0 = unlimited)
 *   --top N            print only the N best-ranked reports (triage only)
 *   --json             emit reports and statistics as JSON
 *   --grouped          group report listing by function
 *   --dot-callgraph    print the call graph (DOT, category-colored)
 *   --dot-cfg FN       print the control-flow graph of function FN (DOT)
 *   --dump-ir          print the lowered IR before analyzing
 *   --summaries        print all computed summaries after analyzing
 */

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dot.h"
#include "core/report_format.h"
#include "core/rid.h"
#include "kernel/dpm_specs.h"
#include "pyc/pyc_specs.h"
#include "summary/domain.h"

namespace {

/** Ceiling of --threads: far above any useful worker count, low enough
 *  that a typo cannot ask the OS for a thread per SCC of a large run. */
constexpr int kMaxThreads = 256;

/** The contents of @p path, or nothing when it cannot be opened or read
 *  (a directory, say). A regular file is read with one read into a
 *  string of its size; any other stream (a pipe) is read to its end. */
std::optional<std::string>
tryReadFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::string text;
    std::error_code ec;
    uintmax_t size = std::filesystem::file_size(path, ec);
    if (!ec) {
        text.resize(size);
        in.read(text.data(), static_cast<std::streamsize>(size));
        text.resize(static_cast<size_t>(in.gcount()));
    } else {
        char buf[1 << 16];
        while (in.read(buf, sizeof(buf)) || in.gcount() > 0)
            text.append(buf, static_cast<size_t>(in.gcount()));
    }
    if (in.bad())
        return std::nullopt;
    return text;
}

std::string
readFile(const std::string &path)
{
    std::optional<std::string> text = tryReadFile(path);
    if (!text) {
        std::fprintf(stderr, "ridc: cannot open %s\n", path.c_str());
        std::exit(2);
    }
    return std::move(*text);
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: ridc [--spec FILE] [--builtin-dpm] "
                 "[--builtin-pyc]\n"
                 "            [--import FILE] [--export FILE] "
                 "[--max-paths N]\n"
                 "            [--max-subcases N] [--threads N] "
                 "[--no-classify]\n"
                 "            [--deadline S] [--fn-deadline S] "
                 "[--solver-fuel N]\n"
                 "            [--failpoints SPEC] [--keep-going]\n"
                 "            [--domains a,b] [--list-domains]\n"
                 "            [--provenance FILE] [--store DIR] "
                 "[--resume]\n"
                 "            [--triage] [--triage-fuel N] [--top N]\n"
                 "            [--model-bits] [--model-stores]\n"
                 "            [--json] [--grouped] [--dot-callgraph] "
                 "[--dot-cfg FN]\n"
                 "            [--dump-ir] [--summaries] file.c ...\n"
                 "       ridc explain <fingerprint|all> <journal>\n"
                 "       ridc diff-runs <old-journal> <new-journal>\n");
    std::exit(2);
}

/** The value of numeric flag @p flag, parsed over the whole of @p text.
 *  Junk, a negative or non-finite value, a value above @p max, and 0
 *  when @p zero_ok is false are usage errors (exit 2). */
template <typename T>
T
parseNumber(const std::string &flag, const std::string &text,
            bool zero_ok = true, T max = std::numeric_limits<T>::max())
{
    T value{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    // The range test also rejects NaN and infinity.
    if (ec != std::errc() || ptr != end || !(value >= 0 && value <= max) ||
        (!zero_ok && value == 0)) {
        std::string bound = max == std::numeric_limits<T>::max()
                                ? ""
                                : " up to " + std::to_string(max);
        std::fprintf(stderr, "ridc: %s expects a %s number%s, got '%s'\n",
                     flag.c_str(), zero_ok ? "non-negative" : "positive",
                     bound.c_str(), text.c_str());
        std::exit(2);
    }
    return value;
}

std::vector<rid::obs::ProvenanceRecord>
readJournal(const std::string &path)
{
    // Tolerant read: a journal whose writer was killed mid-flush ends in
    // a torn line; every complete record is still usable, so recover
    // them and warn instead of failing the whole subcommand.
    rid::obs::JournalRecovery rec =
        rid::obs::parseJournalTolerant(readFile(path));
    if (rec.skipped_lines > 0) {
        std::fprintf(stderr,
                     "ridc: warning: %s: skipped %zu malformed line(s) "
                     "(torn tail?); recovered %zu record(s)\n",
                     path.c_str(), rec.skipped_lines, rec.records.size());
        for (const auto &e : rec.errors)
            std::fprintf(stderr, "ridc: warning:   %s\n", e.c_str());
    }
    return std::move(rec.records);
}

/** ridc explain <fingerprint|all> <journal> */
int
cmdExplain(int argc, char **argv)
{
    if (argc != 4)
        usage();
    std::string selector = argv[2];
    auto records = readJournal(argv[3]);
    uint64_t wanted = 0;
    bool all = selector == "all";
    if (!all && !rid::obs::parseFp(selector, wanted)) {
        std::fprintf(stderr, "ridc: bad fingerprint '%s'\n",
                     selector.c_str());
        return 2;
    }
    size_t shown = 0;
    for (const auto &r : records) {
        if (!all && r.fingerprint != wanted)
            continue;
        std::printf("%s", rid::obs::explainText(r).c_str());
        shown++;
    }
    if (!shown) {
        std::fprintf(stderr, "ridc: no record matches %s\n",
                     selector.c_str());
        return 1;
    }
    return 0;
}

/** ridc diff-runs <old-journal> <new-journal> */
int
cmdDiffRuns(int argc, char **argv)
{
    if (argc != 4)
        usage();
    auto old_run = readJournal(argv[2]);
    auto new_run = readJournal(argv[3]);
    rid::obs::RunDiff diff = rid::obs::diffRuns(old_run, new_run);
    std::printf("%s", rid::obs::diffText(diff).c_str());
    // Exit 1 only on genuinely new, non-refuted findings: a report the
    // triage pass already refuted should not fail a CI gate, and a tier
    // flip on a known report is a reclassification, not a regression.
    for (const auto &r : diff.added)
        if (r.tier != "refuted")
            return 1;
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Journal subcommands dispatch before flag parsing; everything else
    // is the classic scan invocation.
    if (argc > 1 && std::strcmp(argv[1], "explain") == 0)
        return cmdExplain(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "diff-runs") == 0)
        return cmdDiffRuns(argc, argv);

    rid::analysis::AnalyzerOptions opts;
    rid::frontend::LowerOptions lower_opts;
    std::vector<std::string> spec_files, sources, imports;
    std::string export_path;
    bool dump_ir = false, dump_summaries = false;
    bool json = false, grouped = false;
    bool dot_callgraph = false;
    std::string dot_cfg;
    bool builtin_dpm = false, builtin_pyc = false;
    bool keep_going = false;
    bool list_domains = false;
    int top_n = 0;
    std::vector<std::string> domain_filter;

    auto split_domains = [&](const std::string &list) {
        std::stringstream ss(list);
        std::string name;
        while (std::getline(ss, name, ','))
            if (!name.empty())
                domain_filter.push_back(name);
    };

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        if (arg == "--spec")
            spec_files.push_back(next());
        else if (arg == "--builtin-dpm")
            builtin_dpm = true;
        else if (arg == "--builtin-pyc")
            builtin_pyc = true;
        else if (arg == "--import")
            imports.push_back(next());
        else if (arg == "--export")
            export_path = next();
        else if (arg == "--max-paths")
            opts.max_paths = parseNumber<int>(arg, next(), false);
        else if (arg == "--max-subcases")
            opts.max_subcases = parseNumber<int>(arg, next(), false);
        else if (arg == "--threads")
            opts.threads = parseNumber<int>(arg, next(), false, kMaxThreads);
        else if (arg == "--no-classify")
            opts.classify = false;
        else if (arg == "--deadline")
            opts.run_deadline_seconds = parseNumber<double>(arg, next());
        else if (arg == "--fn-deadline")
            opts.function_deadline_seconds = parseNumber<double>(arg, next());
        else if (arg == "--solver-fuel")
            opts.function_solver_fuel = parseNumber<uint64_t>(arg, next());
        else if (arg == "--failpoints")
            opts.failpoints = next();
        else if (arg == "--provenance")
            opts.provenance_path = next();
        else if (arg == "--store")
            opts.store_path = next();
        else if (arg.rfind("--store=", 0) == 0)
            opts.store_path = arg.substr(std::strlen("--store="));
        else if (arg == "--resume")
            opts.resume = true;
        else if (arg == "--domains")
            split_domains(next());
        else if (arg.rfind("--domains=", 0) == 0)
            split_domains(arg.substr(std::strlen("--domains=")));
        else if (arg == "--list-domains")
            list_domains = true;
        else if (arg == "--keep-going")
            keep_going = true;
        else if (arg == "--triage")
            opts.triage = true;
        else if (arg == "--triage-fuel")
            opts.triage_fuel = parseNumber<uint64_t>(arg, next());
        else if (arg == "--top")
            top_n = parseNumber<int>(arg, next());
        else if (arg == "--model-bits")
            lower_opts.model_bit_tests = true;
        else if (arg == "--model-stores")
            lower_opts.model_field_stores = true;
        else if (arg == "--json")
            json = true;
        else if (arg == "--dot-callgraph")
            dot_callgraph = true;
        else if (arg == "--dot-cfg")
            dot_cfg = next();
        else if (arg == "--grouped")
            grouped = true;
        else if (arg == "--dump-ir")
            dump_ir = true;
        else if (arg == "--summaries")
            dump_summaries = true;
        else if (arg == "--help" || arg[0] == '-')
            usage();
        else
            sources.push_back(arg);
    }
    if (sources.empty() && !list_domains)
        usage();
    if (spec_files.empty() && !builtin_dpm && !builtin_pyc) {
        std::fprintf(stderr, "ridc: no API specifications given; use "
                             "--spec, --builtin-dpm or --builtin-pyc\n");
        return 2;
    }

    rid::Rid tool(opts, lower_opts);
    try {
        if (builtin_dpm)
            tool.loadSpecText(rid::kernel::dpmSpecText());
        if (builtin_pyc)
            tool.loadSpecText(rid::pyc::pycSpecText());
        for (const auto &path : spec_files)
            tool.loadSpecFile(path);
        for (const auto &path : imports)
            tool.importSummaries(readFile(path));
        for (const auto &path : sources) {
            if (keep_going) {
                std::optional<std::string> text = tryReadFile(path);
                bool added = false;
                if (!text)
                    tool.rejectFile(path, "cannot open " + path);
                else
                    added = tool.addSourceTolerant(path, std::move(*text));
                if (!added)
                    std::fprintf(stderr, "ridc: skipping %s: %s\n",
                                 path.c_str(),
                                 tool.fileDiagnostics().back().reason
                                     .c_str());
            } else {
                tool.addSource(readFile(path));
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ridc: %s\n", e.what());
        return 2;
    }

    rid::summary::DomainTable domains = tool.summaries().domains();
    if (list_domains) {
        std::printf("%s", rid::summary::listDomainsText(domains).c_str());
        return 0;
    }
    for (const auto &name : domain_filter) {
        if (!domains.contains(name)) {
            std::fprintf(stderr,
                         "ridc: unknown domain '%s' (--list-domains "
                         "prints the declared domains)\n",
                         name.c_str());
            return 2;
        }
    }
    tool.options().enabled_domains = domain_filter;

    if (dump_ir)
        std::printf("%s\n", tool.module().str().c_str());
    if (!dot_cfg.empty()) {
        const rid::ir::Module &mod = tool.module();
        int k = mod.indexOf(dot_cfg);
        if (k < 0 || mod.skeleton(k).declaration) {
            std::fprintf(stderr, "ridc: no definition of %s\n",
                         dot_cfg.c_str());
            return 2;
        }
        std::printf("%s", rid::analysis::cfgToDot(mod.function(k)).c_str());
        return 0;
    }
    if (dot_callgraph) {
        // Color by the classification the analysis would run: the same
        // seeds, restricted to the --domains filter.
        rid::analysis::CallGraph cg(tool.module());
        rid::analysis::FunctionClassifier classifier(
            tool.module(), cg,
            tool.summaries().namesWithChanges(domain_filter));
        std::printf("%s", rid::analysis::callGraphToDot(cg, &classifier)
                              .c_str());
        return 0;
    }

    rid::RunResult result;
    try {
        result = tool.run();
    } catch (const std::exception &e) {
        // e.g. an unopenable --store directory; asking for persistence
        // and silently not getting it would be worse than failing.
        std::fprintf(stderr, "ridc: %s\n", e.what());
        return 2;
    }
    if (json) {
        std::printf("%s\n", rid::toJson(result).c_str());
    } else if (grouped) {
        std::printf("%s", rid::groupedText(result).c_str());
    } else {
        // --top N: with triage on, reports are rank-ordered (confirmed
        // first), so the head of the list is the highest-confidence cut.
        size_t limit = top_n > 0 ? static_cast<size_t>(top_n)
                                 : result.reports.size();
        size_t printed = 0;
        for (const auto &report : result.reports) {
            if (printed++ >= limit)
                break;
            std::printf("%s\n", report.str().c_str());
        }
        std::fprintf(stderr, "%s", result.str().c_str());
    }

    if (dump_summaries)
        std::printf("%s", tool.exportSummaries().c_str());
    if (!export_path.empty()) {
        std::ofstream out(export_path);
        out << tool.exportSummaries();
    }
    return result.reports.empty() ? 0 : 1;
}
