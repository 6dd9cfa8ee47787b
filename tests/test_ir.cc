/**
 * @file
 * Unit tests for the abstract-program IR (ir/).
 */

#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>

#include <gtest/gtest.h>

#include "frontend/lower.h"
#include "ir/builder.h"
#include "ir/function.h"
#include "kernel/generator.h"

namespace rid::ir {
namespace {

TEST(Value, Factories)
{
    EXPECT_TRUE(Value::none().isNone());
    EXPECT_TRUE(Value::var("x").isVar());
    EXPECT_EQ(Value::var("x").varName(), "x");
    EXPECT_TRUE(Value::intConst(5).isConst());
    EXPECT_EQ(Value::intConst(5).intValue(), 5);
    EXPECT_TRUE(Value::boolConst(true).boolValue());
    EXPECT_TRUE(Value::null().isConst());
}

TEST(Value, Equality)
{
    EXPECT_EQ(Value::var("x"), Value::var("x"));
    EXPECT_FALSE(Value::var("x") == Value::var("y"));
    EXPECT_FALSE(Value::intConst(0) == Value::null());
}

TEST(Value, Printing)
{
    EXPECT_EQ(Value::var("x").str(), "x");
    EXPECT_EQ(Value::intConst(-3).str(), "-3");
    EXPECT_EQ(Value::null().str(), "null");
    EXPECT_EQ(Value::boolConst(false).str(), "false");
}

TEST(Instruction, FactoriesAndPrinting)
{
    EXPECT_EQ(Instruction::assign("x", Value::intConst(1)).str(),
              "x = 1");
    EXPECT_EQ(
        Instruction::fieldLoad("t", Value::var("dev"), "pm").str(),
        "t = dev.pm");
    EXPECT_EQ(Instruction::random("r").str(), "r = random");
    const Value a[] = {Value::var("a")};
    EXPECT_EQ(Instruction::call("", "f", a).str(), "f(a)");
    EXPECT_EQ(Instruction::call("x", "f", {}).str(), "x = f()");
    EXPECT_EQ(Instruction::ret(Value::intConst(0)).str(), "return 0");
    EXPECT_EQ(Instruction::ret(Value::none()).str(), "return");
    EXPECT_EQ(Instruction::cmp("t", smt::Pred::Le, Value::var("v"),
                               Value::intConst(0))
                  .str(),
              "t = v <= 0");
    EXPECT_EQ(Instruction::branch(3).str(), "branch bb3");
    EXPECT_EQ(Instruction::condBranch(Value::var("t"), 1, 2).str(),
              "branch t, bb1, bb2");
}

TEST(Instruction, TerminatorClassification)
{
    EXPECT_TRUE(Instruction::ret(Value::none()).isTerminator());
    EXPECT_TRUE(Instruction::branch(0).isTerminator());
    EXPECT_TRUE(
        Instruction::condBranch(Value::var("t"), 0, 1).isTerminator());
    EXPECT_FALSE(Instruction::assign("x", Value::intConst(1))
                     .isTerminator());
    EXPECT_FALSE(Instruction::call("", "f", {}).isTerminator());
}

TEST(BasicBlock, Successors)
{
    IrBuilder b("f", {}, false);
    BlockId b0 = b.currentBlock();
    BlockId b1 = b.newBlock();
    BlockId b2 = b.newBlock();
    b.condBranch(Value::var("t"), b1, b2);
    b.branch(b2);
    b.ret(Value::none());
    auto taken = b.take();
    const Function &fn = *taken;
    EXPECT_EQ(fn.block(b0).successors(), (std::vector<BlockId>{b1, b2}));
    EXPECT_EQ(fn.block(b1).successors(), (std::vector<BlockId>{b2}));
    EXPECT_TRUE(fn.block(b2).successors().empty());
}

TEST(Function, VerifyThrowsIrErrorOnBadIr)
{
    // A fault-isolated pipeline needs verification failures to be
    // catchable: verify() throws IrError instead of aborting. Frozen IR
    // is verified as it is built, so take() is where bad IR throws.
    IrBuilder bad("bad_fn", {}, false);
    BlockId b0 = bad.currentBlock();
    bad.branch(99);
    try {
        bad.take();
        FAIL() << "expected IrError";
    } catch (const IrError &e) {
        EXPECT_EQ(e.function(), "bad_fn");
        EXPECT_EQ(e.block(), b0);
        EXPECT_NE(std::string(e.what()).find("branch target out of range"),
                  std::string::npos)
            << e.what();
    }

    IrBuilder unterminated("open_fn", {}, false);
    EXPECT_THROW(unterminated.take(), IrError);
}

TEST(Function, DeclarationHasNoBlocks)
{
    auto declared = Function::declaration("f", {"a"}, true);
    const Function &fn = *declared;
    EXPECT_TRUE(fn.isDeclaration());
    EXPECT_TRUE(fn.isParam("a"));
    EXPECT_FALSE(fn.isParam("b"));
}

TEST(Function, CountCondBranches)
{
    IrBuilder b("f", {"a"}, true);
    BlockId t1 = b.newBlock(), f1 = b.newBlock();
    b.cmp("c", smt::Pred::Gt, Value::var("a"), Value::intConst(0));
    b.condBranch(Value::var("c"), t1, f1);
    b.ret(Value::intConst(1));
    b.setBlock(f1);
    b.ret(Value::intConst(0));
    auto taken = b.take();
    const Function &fn = *taken;
    EXPECT_EQ(fn.countCondBranches(), 1);
}

TEST(Builder, CursorFollowsBranches)
{
    IrBuilder b("f", {}, false);
    BlockId next = b.newBlock();
    b.branch(next);
    EXPECT_EQ(b.currentBlock(), next);
    b.ret();
    auto taken = b.take();
    const Function &fn = *taken;
    EXPECT_EQ(fn.numBlocks(), 2u);
}

TEST(Builder, SealOpenBlocks)
{
    IrBuilder b("f", {}, true);
    b.newBlock();  // never reached, never terminated
    b.ret(Value::intConst(0));
    b.sealOpenBlocks(Value::intConst(0));
    auto taken = b.take();  // take() verifies all blocks terminated
    const Function &fn = *taken;
    EXPECT_EQ(fn.numBlocks(), 2u);
}

TEST(Builder, LinesAttach)
{
    IrBuilder b("f", {}, false);
    b.atLine(42).callVoid("g", {});
    b.ret();
    auto taken = b.take();
    const Function &fn = *taken;
    EXPECT_EQ(fn.block(0).instrs[0].line, 42);
}

/** @p fns as one unit, in order, for Module::commit. */
template <typename... Fns>
std::vector<std::unique_ptr<Function>>
unitOf(Fns... fns)
{
    std::vector<std::unique_ptr<Function>> unit;
    (unit.push_back(std::move(fns)), ...);
    return unit;
}

TEST(Module, FindAndAdd)
{
    Module m;
    m.commit(unitOf(Function::declaration("f", {"a"}, true)));
    EXPECT_NE(m.find("f"), nullptr);
    EXPECT_EQ(m.find("g"), nullptr);
    EXPECT_EQ(m.size(), 1u);
}

TEST(Module, DefinitionReplacesDeclaration)
{
    auto defining = [] {
        IrBuilder b("f", {"a"}, true);
        b.ret(Value::intConst(0));
        return b.take();
    };
    Module m;
    m.commit(unitOf(Function::declaration("f", {"a"}, true),  // declaration
                    Function::declaration("g", {}, false)));
    EXPECT_TRUE(m.find("f")->isDeclaration());

    std::unique_ptr<Function> fn = defining();
    const Function *def = fn.get();
    m.commit(unitOf(std::move(fn)));
    EXPECT_FALSE(m.find("f")->isDeclaration());
    EXPECT_EQ(m.size(), 2u);
    // The definition keeps the declaration's position, which is the
    // function's call-graph node.
    EXPECT_EQ(m.indexOf("f"), 0);
    EXPECT_EQ(m.functions()[0], def);
    EXPECT_EQ(m.find("f"), def);
    EXPECT_EQ(m.indexOf("g"), 1);
    EXPECT_EQ(m.indexOf("absent"), -1);
    EXPECT_EQ(m.find("absent"), nullptr);

    // The same through absorb, with the declaring unit first.
    Module declaring, defining_unit, merged;
    declaring.commit(unitOf(Function::declaration("h", {}, false),
                            Function::declaration("f", {"a"}, true)));
    defining_unit.commit(unitOf(defining()));
    merged.absorb(std::move(declaring));
    merged.absorb(std::move(defining_unit));
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(merged.indexOf("f"), 1);
    EXPECT_FALSE(merged.functions()[1]->isDeclaration());
    EXPECT_EQ(merged.skeleton(1).unit, 1u);
    EXPECT_EQ(merged.find("f"), merged.functions()[1]);
    EXPECT_EQ(merged.indexOf("h"), 0);
}

TEST(Module, FirstDefinitionWins)
{
    Module m;
    IrBuilder b1("f", {}, true);
    b1.ret(Value::intConst(1));
    m.commit(unitOf(b1.take()));

    IrBuilder b2("f", {}, true);
    b2.ret(Value::intConst(2));
    m.commit(unitOf(b2.take()));

    EXPECT_EQ(m.size(), 1u);
    const Instruction &ret = m.find("f")->block(0).instrs.back();
    EXPECT_EQ(ret.a.intValue(), 1);
}

TEST(Module, AbsorbMergesModules)
{
    Module a, b;
    a.commit(unitOf(Function::declaration("f", {}, false)));
    IrBuilder builder("f", {}, false);
    builder.ret();
    b.commit(unitOf(builder.take(), Function::declaration("g", {}, false)));
    a.absorb(std::move(b));
    EXPECT_EQ(a.size(), 2u);
    EXPECT_FALSE(a.find("f")->isDeclaration());
}

TEST(Module, AbsorbStampsTheKeptDefinitionsUnit)
{
    auto defining = [](const char *name, int value) {
        IrBuilder b(name, {}, true);
        b.ret(Value::intConst(value));
        return b.take();
    };
    Module unit0, unit1, unit2;
    unit0.commit(unitOf(Function::declaration("f", {}, true),  // decl only
                        defining("g", 0)));
    unit1.commit(unitOf(defining("f", 1),
                        defining("g", 1)));       // duplicate: first wins
    unit2.commit(unitOf(defining("h", 2)));

    Module m;
    std::string g_before = unit0.find("g")->str();
    uint64_t g_fp = unit0.find("g")->fingerprint();
    m.absorb(std::move(unit0));
    m.absorb(std::move(unit1));
    m.absorb(std::move(unit2));
    EXPECT_EQ(m.skeleton(m.indexOf("f")).unit, 1u);
    EXPECT_EQ(m.skeleton(m.indexOf("g")).unit, 0u);
    EXPECT_EQ(m.skeleton(m.indexOf("h")).unit, 2u);
    // The stamp is bookkeeping, not body: printing and fingerprint are
    // unchanged by it.
    EXPECT_EQ(m.find("g")->str(), g_before);
    EXPECT_EQ(m.find("g")->fingerprint(), g_fp);
    EXPECT_EQ(m.fingerprint(m.indexOf("g")), g_fp);
}

TEST(Module, StablePointersAcrossAdds)
{
    Module m;
    m.commit(unitOf(Function::declaration("f", {}, false)));
    const Function *f = m.find("f");
    for (int i = 0; i < 100; i++)
        m.commit(unitOf(
            Function::declaration("g" + std::to_string(i), {}, false)));
    EXPECT_EQ(m.find("f"), f);
}

TEST(Function, PrinterShowsBlocksAndLabels)
{
    IrBuilder b("f", {"a"}, true);
    BlockId exit = b.newBlock("exit");
    b.branch(exit);
    b.ret(Value::intConst(0));
    std::string text = b.take()->str();
    EXPECT_NE(text.find("bb1 (exit):"), std::string::npos);
    EXPECT_NE(text.find("int f(a)"), std::string::npos);
}

/** One function exercising every opcode, both branch forms, a block
 *  label, negative and extreme constants, every constant kind and a bare
 *  `return` in a `void` function. */
std::unique_ptr<Function>
goldenFunction()
{
    IrBuilder b("golden", {"dev", "flag"}, false);
    BlockId then = b.newBlock("then");
    BlockId other = b.newBlock();
    BlockId out = b.newBlock("out");
    b.assign("x", Value::intConst(-7))
        .assign("big", Value::intConst(INT64_MIN))
        .fieldLoad("pm", Value::var("dev"), "power")
        .fieldStore(Value::var("dev"), "usage", Value::intConst(-1))
        .random("r")
        .call("rc", "pm_runtime_get_sync", {Value::var("dev")})
        .callVoid("put", {Value::var("dev"), Value::intConst(-42),
                          Value::boolConst(true), Value::null()})
        .callVoid("sync", {})
        .cmp("t", smt::Pred::Lt, Value::var("rc"), Value::intConst(0))
        .condBranch(Value::var("t"), then, other);
    b.setBlock(then);
    b.assign("done", Value::boolConst(false)).branch(out);
    b.setBlock(other);
    b.cmp("u", smt::Pred::Ge, Value::var("flag"), Value::null())
        .branch(out);
    b.setBlock(out);
    b.ret();
    return b.take();
}

TEST(Function, GoldenPrintingAndFingerprint)
{
    // Stored summaries are keyed by fingerprint(), an FNV-1a hash of
    // str(). Any change to these bytes turns every record of an existing
    // store into a miss, so the rendering is pinned byte for byte.
    auto golden = goldenFunction();
    const Function &fn = *golden;
    EXPECT_EQ(fn.str(),
              "void golden(dev, flag) {\n"
              "  bb0 (entry):\n"
              "    x = -7\n"
              "    big = -9223372036854775808\n"
              "    pm = dev.power\n"
              "    dev.usage = -1\n"
              "    r = random\n"
              "    rc = pm_runtime_get_sync(dev)\n"
              "    put(dev, -42, true, null)\n"
              "    sync()\n"
              "    t = rc < 0\n"
              "    branch t, bb1, bb2\n"
              "  bb1 (then):\n"
              "    done = false\n"
              "    branch bb3\n"
              "  bb2:\n"
              "    u = flag >= null\n"
              "    branch bb3\n"
              "  bb3 (out):\n"
              "    return\n"
              "}\n");
    EXPECT_EQ(fn.fingerprint(), 0xc843c8ea36842c6eull);

    auto declared = Function::declaration("decl", {"a", "b"}, true);
    const Function &decl = *declared;
    EXPECT_EQ(decl.str(), "int decl(a, b);\n");
    EXPECT_EQ(decl.fingerprint(), 0x8ab52782cd57b9a9ull);
}

// A frozen function owns its instructions and blocks through its one
// allocation; neither holds anything that needs destroying.
static_assert(std::is_trivially_destructible_v<ir::Instruction>);
static_assert(std::is_trivially_destructible_v<ir::BasicBlock>);

TEST(Layout, FrozenFunctionIsOneExactSizeBlock)
{
    // take() lays the header, blocks, instructions, call arguments and
    // parameters out back to back, in that order, with no slack.
    auto golden = goldenFunction();
    const Function &fn = *golden;
    const auto *at = reinterpret_cast<const std::byte *>(&fn);
    auto expect_at = [&](const void *p, size_t bytes) {
        EXPECT_EQ(p, at);
        at += bytes;
    };
    at += sizeof(Function);
    expect_at(&fn.block(0), fn.numBlocks() * sizeof(BasicBlock));
    size_t args = 0;
    for (size_t b = 0; b < fn.numBlocks(); b++) {
        const auto &instrs = fn.block(static_cast<BlockId>(b)).instrs;
        expect_at(instrs.data(), instrs.size() * sizeof(Instruction));
        for (const auto &in : instrs)
            args += in.args.size();
    }
    EXPECT_EQ(args, 5u);
    for (size_t b = 0; b < fn.numBlocks(); b++)
        for (const auto &in : fn.block(static_cast<BlockId>(b)).instrs)
            if (!in.args.empty())
                expect_at(in.args.data(), in.args.size() * sizeof(Value));
    expect_at(fn.params().data(), fn.params().size() * sizeof(Name));

    // A declaration is the header and its parameters.
    auto decl = Function::declaration("decl", {"a", "b"}, true);
    EXPECT_EQ(reinterpret_cast<const std::byte *>(decl->params().data()),
              reinterpret_cast<const std::byte *>(decl.get()) +
                  sizeof(Function));
    EXPECT_EQ(decl->numBlocks(), 0u);
}

TEST(Layout, InstructionAndValueStaySmall)
{
    // The lowered IR is most of a scan's memory: an instruction holds
    // interned names, not strings, and a value's name and integer share
    // storage. Pinned so the IR cannot silently grow back.
    EXPECT_LE(sizeof(Instruction), 128u);
    EXPECT_LE(sizeof(Value), 24u);
    EXPECT_EQ(sizeof(Name), sizeof(void *));
}

TEST(Name, EqualSpellingsInternToOneHandle)
{
    std::string spelled = "pm_runtime_";
    spelled += "get_sync";
    Name a("pm_runtime_get_sync");
    Name b(spelled);
    Name c(std::string_view(spelled).substr(0, 10));
    EXPECT_EQ(a, b);
    EXPECT_EQ(&a.str(), &b.str());   // one stored string
    EXPECT_NE(a, c);
    EXPECT_EQ(c, "pm_runtime");
    EXPECT_EQ(a.str(), spelled);

    EXPECT_TRUE(Name().empty());
    EXPECT_EQ(Name(), Name(""));
    EXPECT_EQ(Name().str(), "");
    EXPECT_FALSE(a.empty());

    // Ordering is by spelling, whatever order the names were interned in.
    Name z("zz_interned_first"), y("aa_interned_second");
    EXPECT_TRUE(y < z);
    EXPECT_FALSE(z < y);
    EXPECT_TRUE(Name() < y);
}

TEST(Value, ComparesByKindAndPayload)
{
    EXPECT_EQ(Value::var("x"), Value::var(std::string("x")));
    EXPECT_NE(Value::var("x"), Value::var("y"));
    EXPECT_NE(Value::intConst(0), Value::null());
    EXPECT_NE(Value::intConst(0), Value::none());
    EXPECT_EQ(Value::var("x").intValue(), 0);
    EXPECT_EQ(Value::intConst(7).varName(), "");
    EXPECT_EQ(Value::boolConst(true).intValue(), 1);
}

TEST(Name, ConcurrentCompilesProduceIdenticalModules)
{
    // Units may be lowered on several threads at once (the intern table
    // is shared); every thread must print the same module.
    kernel::Corpus corpus = kernel::generateCorpus(
        kernel::CorpusMix::paperCalibrated(0.001));
    std::string source;
    for (size_t i = 0; i < corpus.files.size() && i < 6; i++)
        source += corpus.files[i].text;

    // The threads race to intern the source's names first.
    std::vector<std::string> printed(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < printed.size(); t++)
        threads.emplace_back([&, t] {
            for (int round = 0; round < 3; round++)
                printed[t] = frontend::compile(source).str();
        });
    for (auto &th : threads)
        th.join();
    const std::string expected = frontend::compile(source).str();
    EXPECT_FALSE(expected.empty());
    for (const auto &p : printed)
        EXPECT_EQ(p, expected);
}

} // anonymous namespace
} // namespace rid::ir
