// End-to-end integration test of the locs_cli binary: generate, stats,
// convert, decompose, and query via actual subprocess invocations.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <string>
#include <utility>

#include "util/failpoint.h"

namespace locs {
namespace {

#ifndef LOCS_CLI_PATH
#define LOCS_CLI_PATH "locs_cli"
#endif

/// Runs the CLI with `args`, captures stdout, returns {exit_code, output}.
std::pair<int, std::string> RunCli(const std::string& args) {
  const std::string command =
      std::string(LOCS_CLI_PATH) + " " + args + " 2>/dev/null";
  std::FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 4096> buffer{};
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  const int status = ::pclose(pipe);
  return {WEXITSTATUS(status), output};
}

/// Like RunCli, but with stderr folded into the captured output — for
/// asserting on diagnostics.
std::pair<int, std::string> RunCliMergedStderr(const std::string& args) {
  const std::string command =
      std::string(LOCS_CLI_PATH) + " " + args + " 2>&1";
  std::FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 4096> buffer{};
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  const int status = ::pclose(pipe);
  return {WEXITSTATUS(status), output};
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CliIntegrationTest, UsageOnNoArgs) {
  const auto [code, out] = RunCli("");
  EXPECT_NE(code, 0);
}

TEST(CliIntegrationTest, GenerateStatsQueryPipeline) {
  const std::string graph_path = TempPath("cli_pipeline.metis");
  {
    const auto [code, out] = RunCli(
        "generate --model=lfr --n=2000 --seed=5 --output=" + graph_path);
    ASSERT_EQ(code, 0) << out;
    EXPECT_NE(out.find("generated lfr graph"), std::string::npos);
  }
  {
    const auto [code, out] = RunCli("stats --input=" + graph_path);
    ASSERT_EQ(code, 0);
    EXPECT_NE(out.find("vertices"), std::string::npos);
    EXPECT_NE(out.find("2,000"), std::string::npos);
    EXPECT_NE(out.find("degeneracy"), std::string::npos);
  }
  {
    const auto [code, out] =
        RunCli("csm --input=" + graph_path + " --vertex=7");
    ASSERT_EQ(code, 0);
    EXPECT_NE(out.find("best community"), std::string::npos);
  }
  {
    const auto [code, out] =
        RunCli("cst --input=" + graph_path + " --vertex=7 --k=2");
    ASSERT_EQ(code, 0);
    EXPECT_TRUE(out.find("community:") != std::string::npos ||
                out.find("no community") != std::string::npos);
  }
  {
    const auto [code, out] =
        RunCli("decompose --input=" + graph_path + " --top=3");
    ASSERT_EQ(code, 0);
    EXPECT_NE(out.find("degeneracy"), std::string::npos);
    EXPECT_NE(out.find("k-shell"), std::string::npos);
  }
}

TEST(CliIntegrationTest, CompileRejectsAnAlreadyCompiledImage) {
  // Recompiling a .limg must fail with a clear diagnostic, not a
  // confusing edge-list parse error from feeding binary bytes to the
  // text loader.
  const std::string graph_path = TempPath("cli_recompile.metis");
  const std::string image_path = TempPath("cli_recompile.limg");
  ASSERT_EQ(RunCli("generate --model=gnp --n=60 --p=0.2 --seed=4 "
                   "--output=" +
                   graph_path)
                .first,
            0);
  ASSERT_EQ(RunCli("compile " + graph_path + " " + image_path).first, 0);
  const auto [code, out] = RunCliMergedStderr(
      "compile " + image_path + " " + TempPath("cli_recompile2.limg"));
  EXPECT_EQ(code, 2);
  EXPECT_NE(out.find("already a compiled graph image"), std::string::npos)
      << out;
}

TEST(CliIntegrationTest, ImageInputAnswersLikeItsSourceText) {
  // cst/csm over a compiled image use the snapshot the image stores; a
  // text input builds the same snapshot. Only the timings may differ.
  const std::string graph_path = TempPath("cli_same_answer.metis");
  const std::string image_path = TempPath("cli_same_answer.limg");
  ASSERT_EQ(RunCli("generate --model=lfr --n=1500 --seed=9 --output=" +
                   graph_path)
                .first,
            0);
  ASSERT_EQ(RunCli("compile " + graph_path + " " + image_path).first, 0);
  const auto masked = [](const std::string& text) {
    return std::regex_replace(text, std::regex("[0-9.]+ms"), "<t>ms");
  };
  for (const std::string query :
       {"cst --vertex=7 --k=3", "cst --vertex=7 --k=99",
        "cst --vertex=7 --k=3 --global", "csm --vertex=7"}) {
    SCOPED_TRACE(query);
    const auto [text_code, text_out] =
        RunCli(query + " --limit=0 --input=" + graph_path);
    const auto [image_code, image_out] =
        RunCli(query + " --limit=0 --input=" + image_path);
    ASSERT_EQ(text_code, 0) << text_out;
    EXPECT_EQ(image_code, text_code);
    EXPECT_EQ(masked(image_out), masked(text_out));
  }
  // k above the degeneracy: the core index answers without a search.
  EXPECT_NE(RunCli("cst --vertex=7 --k=99 --input=" + image_path)
                .second.find(", 0 vertices visited"),
            std::string::npos);
}

TEST(CliIntegrationTest, UnopenableTraceFileIsAHardError) {
  // A --trace= path that cannot be opened must abort the run with the
  // typed open-error exit code — not run untraced with exit 0 and not
  // collapse into the generic failure code.
  const std::string graph_path = TempPath("cli_trace_err.metis");
  ASSERT_EQ(RunCli("generate --model=gnp --n=50 --p=0.2 --seed=9 --output=" +
                   graph_path)
                .first,
            0);
  const auto [code, out] =
      RunCli("cst --input=" + graph_path + " --vertex=1 --k=1 " +
             "--trace=/nonexistent-dir/trace.jsonl");
  EXPECT_EQ(code, 3);  // kExitOpenError
}

TEST(CliIntegrationTest, LocalAndGlobalAgreeOnGoodness) {
  const std::string graph_path = TempPath("cli_agree.metis");
  ASSERT_EQ(RunCli("generate --model=ba --n=1000 --m=4 --seed=3 --output=" +
                   graph_path)
                .first,
            0);
  const auto [code_l, local] =
      RunCli("csm --input=" + graph_path + " --vertex=11");
  const auto [code_g, global] =
      RunCli("csm --input=" + graph_path + " --vertex=11 --global");
  ASSERT_EQ(code_l, 0);
  ASSERT_EQ(code_g, 0);
  // Both report "δ=<value>"; the values must match.
  const auto delta_of = [](const std::string& text) {
    const size_t pos = text.find("δ=");
    EXPECT_NE(pos, std::string::npos);
    return text.substr(pos, text.find(' ', pos) - pos);
  };
  EXPECT_EQ(delta_of(local), delta_of(global));
}

TEST(CliIntegrationTest, ConvertRoundTripAcrossFormats) {
  const std::string metis_path = TempPath("cli_conv.metis");
  const std::string edge_path = TempPath("cli_conv.txt");
  const std::string back_path = TempPath("cli_conv_back.metis");
  const std::string image_path = TempPath("cli_conv.limg");
  ASSERT_EQ(RunCli("generate --model=gnp --n=300 --p=0.05 --seed=2 "
                   "--output=" +
                   metis_path)
                .first,
            0);
  ASSERT_EQ(RunCli("convert --input=" + metis_path +
                   " --output=" + edge_path)
                .first,
            0);
  ASSERT_EQ(RunCli("convert --input=" + edge_path +
                   " --output=" + back_path)
                .first,
            0);
  ASSERT_EQ(RunCli("compile " + metis_path + " " + image_path).first, 0);
  // Every format reports identical edge counts in stats.
  const auto edges_of = [](const std::string& path) {
    const auto [code, out] = RunCli("stats --input=" + path);
    EXPECT_EQ(code, 0);
    const size_t pos = out.find("edges");
    return out.substr(pos, out.find('\n', pos) - pos);
  };
  const std::string edges = edges_of(metis_path);
  EXPECT_EQ(edges_of(edge_path), edges);
  EXPECT_EQ(edges_of(back_path), edges);
  EXPECT_EQ(edges_of(image_path), edges);
}

TEST(CliIntegrationTest, BatchCommandRunsBothModes) {
  const std::string graph_path = TempPath("cli_batch.metis");
  ASSERT_EQ(RunCli("generate --model=lfr --n=1500 --seed=9 --output=" +
                   graph_path)
                .first,
            0);
  {
    const auto [code, out] = RunCli("batch --input=" + graph_path +
                                    " --mode=cst --k=3 --sample=50 "
                                    "--threads=4");
    ASSERT_EQ(code, 0) << out;
    EXPECT_NE(out.find("completed"), std::string::npos);
    EXPECT_NE(out.find("50"), std::string::npos);
    EXPECT_NE(out.find("batch wall ms"), std::string::npos);
  }
  {
    // Explicit query file with comments; --show-results prints one
    // "vertex goodness" line per completed query.
    const std::string queries_path = TempPath("cli_batch_queries.txt");
    {
      std::ofstream out(queries_path);
      out << "# query vertices\n3\n5\n8\n";
    }
    const auto [code, out] = RunCli(
        "batch --input=" + graph_path + " --mode=csm --queries-file=" +
        queries_path + " --show-results");
    ASSERT_EQ(code, 0) << out;
    EXPECT_NE(out.find("completed"), std::string::npos);
    EXPECT_NE(out.find("\n3 "), std::string::npos);
    EXPECT_NE(out.find("\n5 "), std::string::npos);
    EXPECT_NE(out.find("\n8 "), std::string::npos);
  }
  // Out-of-range vertex in the query file is a clean error.
  {
    const std::string bad_path = TempPath("cli_batch_bad.txt");
    {
      std::ofstream out(bad_path);
      out << "999999999\n";
    }
    EXPECT_NE(RunCli("batch --input=" + graph_path +
                     " --queries-file=" + bad_path)
                  .first,
              0);
  }
  // A query id is one whole decimal token: neither a word nor a number
  // with trailing junk reads as some other vertex.
  for (const std::string token : {"abc", "12x"}) {
    const std::string bad_path = TempPath("cli_batch_bad_token.txt");
    {
      std::ofstream out(bad_path);
      out << token << "\n";
    }
    EXPECT_EQ(RunCli("batch --input=" + graph_path +
                     " --queries-file=" + bad_path)
                  .first,
              1)
        << token;
  }
  // An id past 32 bits is out of range, not truncated to vertex 0.
  EXPECT_EQ(
      RunCli("cst --input=" + graph_path + " --vertex=4294967296 --k=3")
          .first,
      1);
}

TEST(CliIntegrationTest, BatchRejectsBadFlagsNamingThem) {
  // `batch` reads its flags strictly and before loading the graph: an
  // unknown flag or a malformed or out-of-range number exits 2 and names
  // the flag, instead of running with a default or a wrapped value.
  const std::string graph_path = TempPath("cli_batch_flags.metis");
  ASSERT_EQ(RunCli("generate --model=lfr --n=500 --seed=3 --output=" +
                   graph_path)
                .first,
            0);
  const std::pair<std::string, std::string> cases[] = {
      {"--sample=-1", "--sample"},
      {"--sample=12x", "--sample"},
      {"--k=-3", "--k"},
      {"--k=4294967296", "--k"},
      {"--threads=-1", "--threads"},
      {"--threads=abc", "--threads"},
      {"--threads=100000", "--threads"},
      {"--seed=1.5", "--seed"},
      {"--work-budget=-7", "--work-budget"},
      {"--deadline-ms=-1", "--deadline-ms"},
      {"--query-deadline-ms=inf", "--query-deadline-ms"},
      {"--frobnicate", "--frobnicate"},
  };
  for (const auto& [flag, name] : cases) {
    const auto [code, out] = RunCliMergedStderr(
        "batch --input=" + graph_path + " --sample=5 " + flag);
    EXPECT_EQ(code, 2) << flag << ": " << out;
    EXPECT_NE(out.find(name), std::string::npos) << flag << ": " << out;
    EXPECT_EQ(out.find("loaded"), std::string::npos) << flag << ": " << out;
  }
  // The same flags with good values run the batch.
  const auto [code, out] = RunCli(
      "batch --input=" + graph_path +
      " --sample=5 --k=3 --threads=2 --seed=4 --work-budget=0"
      " --deadline-ms=0 --query-deadline-ms=0");
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("completed"), std::string::npos) << out;
}

TEST(CliIntegrationTest, EveryCommandRejectsBadFlagsBeforeLoading) {
  // Every subcommand but compile lists its flags: an unknown flag, a
  // malformed or negative number, a positional argument and a missing
  // required flag each exit 2 and name the flag or argument, before any
  // graph is loaded or generated.
  const std::string graph_path = TempPath("cli_strict_flags.metis");
  ASSERT_EQ(RunCli("generate --model=gnp --n=60 --p=0.2 --seed=4 "
                   "--output=" +
                   graph_path)
                .first,
            0);
  const std::string in = " --input=" + graph_path;
  const std::string out_path = TempPath("cli_strict_flags_out.metis");
  const std::string out = " --output=" + out_path;
  const std::pair<std::string, std::string> cases[] = {
      {"cst" + in + " --vertx=12 --k=2", "--vertx"},
      {"cst" + in + " --vertex=7 --k=abc", "--k"},
      {"cst" + in + " --vertex=7 --k=-3", "--k"},
      {"cst" + in + " --vertex=7 --k=2 extra", "'extra'"},
      {"cst" + in + " --k=2", "--vertex"},
      {"cst" + in + " --vertex=7", "--k"},
      {"cst" + in + " --vertex=7 --k=2 --k=3", "--k"},
      {"cst" + in + " --vertex=7 --k=2 --global=1", "--global"},
      {"csm" + in + " --vertex=7 --frobnicate", "--frobnicate"},
      {"csm" + in + " --vertex=7 --work-budget=-1", "--work-budget"},
      {"csm" + in + " --vertex=seven", "--vertex"},
      {"csm" + in + " --vertex=7 --limit=5x", "--limit"},
      {"csm" + in + " --vertex=7 --query-deadline-ms=-1",
       "--query-deadline-ms"},
      {"csm" + in + " --vertex=7 extra", "'extra'"},
      {"csm" + in, "--vertex"},
      {"stats" + in + " --top=3", "--top"},
      {"stats --input=g extra", "'extra'"},
      {"stats --input", "--input"},
      {"stats", "--input"},
      {"decompose" + in + " --frobnicate", "--frobnicate"},
      {"decompose" + in + " --top=x", "--top"},
      {"decompose" + in + " --top=-1", "--top"},
      {"decompose" + in + " extra", "'extra'"},
      {"decompose --top=3", "--input"},
      {"convert" + in + out + " --frobnicate", "--frobnicate"},
      {"convert" + in + out + " extra", "'extra'"},
      {"convert" + out, "--input"},
      {"generate" + out + " --frobnicate", "--frobnicate"},
      {"generate" + out + " --n=-1", "--n"},
      {"generate" + out + " --seed=1.5", "--seed"},
      {"generate" + out + " --mu=abc", "--mu"},
      {"generate" + out + " extra", "'extra'"},
      // Out of range for the generator, which would abort on them.
      {"generate" + out + " --min-degree=50 --max-degree=10",
       "--min-degree"},
      {"generate" + out + " --mu=1.5", "--mu"},
      {"generate" + out + " --model=gnp --p=-1", "--p"},
      {"generate" + out + " --model=ba --n=10 --m=20", "--n"},
      {"client --port=1 --frobnicate", "--frobnicate"},
      {"client --port=1 --retries=x", "--retries"},
      {"client --port=-1", "--port"},
      {"client --port=1 extra", "'extra'"},
      {"client --retries=1", "--port"},
  };
  for (const auto& [args, named] : cases) {
    std::remove(out_path.c_str());
    const auto [code, output] = RunCliMergedStderr(args + " </dev/null");
    EXPECT_EQ(code, 2) << args << ": " << output;
    EXPECT_NE(output.find(named), std::string::npos) << args << ": "
                                                     << output;
    EXPECT_EQ(output.find("loaded"), std::string::npos) << args << ": "
                                                        << output;
    EXPECT_FALSE(std::ifstream(out_path).good()) << args;
  }
  // A missing --output keeps its exit 1, and still loads nothing.
  for (const std::string& args :
       {std::string("generate --n=100"), "convert" + in}) {
    const auto [code, output] = RunCliMergedStderr(args);
    EXPECT_EQ(code, 1) << args << ": " << output;
    EXPECT_NE(output.find("--output"), std::string::npos) << output;
    EXPECT_EQ(output.find("loaded"), std::string::npos) << output;
  }
}

TEST(CliIntegrationTest, UnknownCommandHasDistinctExitAndStderr) {
  // Unknown subcommands are a user error distinct from the generic
  // usage failure: named on stderr, exit code 64.
  const std::string command = std::string(LOCS_CLI_PATH) +
                              " frobnicate 2>&1 1>/dev/null";
  std::FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string err;
  std::array<char, 4096> buffer{};
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    err += buffer.data();
  }
  const int code = WEXITSTATUS(::pclose(pipe));
  EXPECT_EQ(code, 64);
  EXPECT_NE(err.find("unknown command 'frobnicate'"), std::string::npos)
      << err;
  // The usage path (no arguments) keeps its own exit code.
  EXPECT_NE(RunCli("").first, 64);
}

TEST(CliIntegrationTest, LoadFailuresMapToTypedExitCodes) {
  // A METIS vertex count past the 32-bit id range is a parse error, not
  // an abort inside the graph builder.
  const std::string huge_path = TempPath("cli_huge.metis");
  {
    std::ofstream out(huge_path);
    out << "4294967297 1\n2\n";
  }
  EXPECT_EQ(RunCli("stats --input=" + huge_path).first, 4);  // parse
#if LOCS_FAILPOINTS
  // Running out of memory in a text loader (forced before the parse) is
  // the alloc exit code.
  ::setenv("LOCS_FAILPOINT", "io.text.alloc", 1);
  const int code = RunCli("stats --input=" + huge_path).first;
  ::unsetenv("LOCS_FAILPOINT");
  EXPECT_EQ(code, 6);  // alloc
#endif
}

TEST(CliIntegrationTest, ErrorsAreClean) {
  EXPECT_NE(RunCli("stats --input=/nonexistent/graph").first, 0);
  EXPECT_NE(RunCli("frobnicate").first, 0);
  EXPECT_NE(RunCli("generate --model=unknown --output=/tmp/x").first, 0);
}

}  // namespace
}  // namespace locs
