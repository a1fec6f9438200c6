/**
 * @file
 * The four tools' command-line surface, run as processes: a missing
 * input file is reported as the open failure it is (exit 1), `--help`
 * and `-h` print the usage and exit 0, and a bad invocation still
 * exits 2.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <sys/wait.h>

namespace {

struct ToolRun
{
    int status = -1;    ///< exit status, -1 if the process did not exit
    std::string output; ///< stdout and stderr together
};

ToolRun
run(const std::string &command)
{
    ToolRun result;
    std::FILE *pipe = ::popen((command + " 2>&1").c_str(), "r");
    if (pipe == nullptr)
        return result;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        result.output.append(buf, n);
    const int status = ::pclose(pipe);
    if (status != -1 && WIFEXITED(status))
        result.status = WEXITSTATUS(status);
    return result;
}

const char *const kTools[] = {EMPROF_ANALYZE_BIN, EMPROF_CAPTURE_BIN,
                              EMPROF_SERVED_BIN, EMPROF_STORE_BIN};

TEST(ToolSurface, MissingInputIsReportedAsAnOpenFailure)
{
    const std::string missing =
        std::string(::testing::TempDir()) + "no_such_capture.emcap";
    std::remove(missing.c_str());
    const std::string out =
        std::string(::testing::TempDir()) + "never_written.emcap";
    for (const std::string &command :
         {std::string(EMPROF_ANALYZE_BIN) + " '" + missing + "'",
          std::string(EMPROF_STORE_BIN) + " convert '" + missing + "' '" +
              out + "'"}) {
        SCOPED_TRACE(command);
        const ToolRun r = run(command);
        EXPECT_EQ(r.status, 1) << r.output;
        EXPECT_NE(r.output.find("cannot open " + missing + ": "),
                  std::string::npos)
            << r.output;
        EXPECT_NE(r.output.find("No such file or directory"),
                  std::string::npos)
            << r.output;
        EXPECT_EQ(r.output.find("unrecognised magic"), std::string::npos)
            << r.output;
    }
}

TEST(ToolSurface, HelpPrintsTheUsageAndExitsZero)
{
    for (const char *tool : kTools)
        for (const char *flag : {"--help", "-h"}) {
            SCOPED_TRACE(std::string(tool) + " " + flag);
            const ToolRun r = run(std::string(tool) + " " + flag);
            EXPECT_EQ(r.status, 0) << r.output;
            EXPECT_NE(r.output.find("usage: "), std::string::npos)
                << r.output;
        }
}

TEST(ToolSurface, BadInvocationStillExitsTwo)
{
    for (const char *tool : kTools) {
        SCOPED_TRACE(tool);
        const ToolRun r =
            run(std::string(tool) + " x.emcap --no-such-flag");
        EXPECT_EQ(r.status, 2) << r.output;
    }
    EXPECT_EQ(run(std::string(EMPROF_STORE_BIN) + " no-such-command x")
                  .status,
              2);
}

} // namespace
