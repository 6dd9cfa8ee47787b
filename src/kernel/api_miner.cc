#include "kernel/api_miner.h"

#include <algorithm>
#include <deque>

#include "analysis/callgraph.h"

namespace rid::kernel {

const std::vector<std::pair<std::string, std::string>> &
apiAntonyms()
{
    static const std::vector<std::pair<std::string, std::string>> table = {
        {"get", "put"},     {"inc", "dec"},       {"acquire", "release"},
        {"ref", "unref"},   {"grab", "release"},  {"claim", "release"},
        {"lock", "unlock"}, {"enable", "disable"}, {"hold", "drop"},
        {"add", "remove"},
    };
    return table;
}

namespace {

/** Split an identifier into '_'-separated tokens. */
std::vector<std::string>
tokensOf(const std::string &name)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : name) {
        if (c == '_') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

std::string
joinTokens(const std::vector<std::string> &tokens)
{
    std::string out;
    for (size_t i = 0; i < tokens.size(); i++) {
        if (i)
            out += '_';
        out += tokens[i];
    }
    return out;
}

} // anonymous namespace

MiningResult
mineRefcountApis(const ir::Module &mod)
{
    MiningResult result;

    // Collect every function name: definitions, declarations and call
    // targets (the basic APIs are usually external, like the kernel's
    // pm_runtime family). The call graph has one node for each.
    analysis::CallGraph cg(mod);
    std::set<std::string> names;
    for (int node = 0; node < static_cast<int>(cg.size()); node++)
        names.insert(cg.nameOf(node));
    for (const auto &fn : mod.functions())
        if (!fn->isDeclaration())
            result.defined_functions++;

    // Token-level antonym replacement: a name whose token equals (or has
    // as a prefix) one antonym side pairs with the name where that token
    // carries the other side.
    std::set<std::pair<std::string, std::string>> seen;
    for (const auto &name : names) {
        auto tokens = tokensOf(name);
        for (size_t t = 0; t < tokens.size(); t++) {
            for (const auto &[inc, dec] : apiAntonyms()) {
                // Token may be the antonym itself ("get") or carry a
                // suffix ("getref" is left alone; "get" only).
                if (tokens[t] != inc)
                    continue;
                auto swapped = tokens;
                swapped[t] = dec;
                std::string counterpart = joinTokens(swapped);
                if (!names.count(counterpart))
                    continue;
                if (!seen.insert({name, counterpart}).second)
                    continue;
                MinedPair pair;
                pair.inc_name = name;
                pair.dec_name = counterpart;
                pair.antonym = inc + "/" + dec;
                result.pairs.push_back(std::move(pair));
                result.api_functions.insert(name);
                result.api_functions.insert(counterpart);

                // Family closure: a mined pair names an API *set*. Any
                // function sharing the stem before the antonym token and
                // carrying either side of the antonym belongs to the set
                // (pm_runtime_get / pm_runtime_put pulls in
                // pm_runtime_get_sync, pm_runtime_put_noidle, ...).
                std::vector<std::string> stem(tokens.begin(),
                                              tokens.begin() + t);
                for (const auto &candidate : names) {
                    auto cand_tokens = tokensOf(candidate);
                    if (cand_tokens.size() <= stem.size())
                        continue;
                    bool stem_match = std::equal(stem.begin(), stem.end(),
                                                 cand_tokens.begin());
                    if (stem_match &&
                        (cand_tokens[stem.size()] == inc ||
                         cand_tokens[stem.size()] == dec)) {
                        result.api_functions.insert(candidate);
                    }
                }
            }
        }
    }

    // Reachability over the call graph: a defined function reaches the
    // mined APIs if it calls one directly or transitively.
    std::vector<bool> reaches(cg.size(), false);
    std::deque<int> worklist;
    for (const auto &api : result.api_functions) {
        int node = cg.nodeOf(api);
        if (node >= 0 && !reaches[node]) {
            reaches[node] = true;
            worklist.push_back(node);
        }
    }
    while (!worklist.empty()) {
        int node = worklist.front();
        worklist.pop_front();
        for (int caller : cg.callersOf(node)) {
            if (!reaches[caller]) {
                reaches[caller] = true;
                worklist.push_back(caller);
            }
        }
    }
    // Node k is module function k.
    for (size_t k = 0; k < mod.size(); k++) {
        const ir::Function &fn = *mod.functions()[k];
        if (!fn.isDeclaration() && reaches[k])
            result.reaching_functions.insert(fn.name());
    }
    return result;
}

} // namespace rid::kernel
