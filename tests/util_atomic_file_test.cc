/**
 * @file
 * Unit tests for crash-safe whole-file writes (util/atomic_file.h):
 * create/replace semantics, binary fidelity, no stray temporaries,
 * failure behavior when the destination directory is missing, and the
 * streaming form's failures (a throwing writer, a stream gone bad).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/atomic_file.h"
#include "util/logging.h"

namespace gables {
namespace {

namespace fs = std::filesystem;

class AtomicFileTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // ctest runs each TEST as its own process, and two of them can
        // start within the same millisecond (the gtest seed) with the
        // counter at 0: the pid keeps their directories apart.
        dir_ = fs::temp_directory_path() /
               ("gables_atomic_test_" + std::to_string(::getpid()) +
                "_" +
                std::to_string(::testing::UnitTest::GetInstance()
                                   ->random_seed()) +
                "_" + std::to_string(counter_++));
        fs::create_directories(dir_);
    }

    void TearDown() override
    {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    std::string slurp(const fs::path &p)
    {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream oss;
        oss << in.rdbuf();
        return oss.str();
    }

    /** @return The names in the test directory. */
    std::vector<std::string> entries()
    {
        std::vector<std::string> names;
        for (const auto &e : fs::directory_iterator(dir_))
            names.push_back(e.path().filename().string());
        return names;
    }

    fs::path dir_;
    static int counter_;
};

int AtomicFileTest::counter_ = 0;

TEST_F(AtomicFileTest, CreatesNewFile)
{
    fs::path target = dir_ / "report.json";
    writeFileAtomic(target.string(), "{\"a\": 1}\n");
    EXPECT_EQ(slurp(target), "{\"a\": 1}\n");
}

TEST_F(AtomicFileTest, ReplacesExistingContents)
{
    fs::path target = dir_ / "report.json";
    writeFileAtomic(target.string(), "old old old old old");
    writeFileAtomic(target.string(), "new");
    EXPECT_EQ(slurp(target), "new");
}

TEST_F(AtomicFileTest, PreservesBinaryBytes)
{
    fs::path target = dir_ / "blob";
    std::string data = "a\0b\r\nc", full(data.data(), 6);
    writeFileAtomic(target.string(), full);
    EXPECT_EQ(slurp(target), full);
}

TEST_F(AtomicFileTest, LeavesNoTemporariesBehind)
{
    fs::path target = dir_ / "report.json";
    writeFileAtomic(target.string(), "x");
    size_t entries = 0;
    for (const auto &e : fs::directory_iterator(dir_)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

TEST_F(AtomicFileTest, MissingDirectoryThrowsAndNameIsInError)
{
    fs::path target = dir_ / "nope" / "report.json";
    try {
        writeFileAtomic(target.string(), "x");
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("report.json"),
                  std::string::npos);
    }
    EXPECT_FALSE(fs::exists(target));
}

TEST_F(AtomicFileTest, FailedWriteLeavesOldContents)
{
    // Target an existing file, then point the write at a directory
    // path that cannot be opened: the original must survive.
    fs::path target = dir_ / "keep.json";
    writeFileAtomic(target.string(), "original");
    fs::path bad = dir_ / "sub" / "x.json";
    EXPECT_THROW(writeFileAtomic(bad.string(), "y"), FatalError);
    EXPECT_EQ(slurp(target), "original");
}

TEST_F(AtomicFileTest, StreamingFormWritesTheStringFormsBytes)
{
    // Larger than any stream buffer, with NULs and CRLFs.
    std::string data;
    for (int i = 0; i < 100000; ++i)
        data += std::string("row\0\r\n", 6) + std::to_string(i);
    fs::path a = dir_ / "a.bin", b = dir_ / "b.bin";
    writeFileAtomic(a.string(), data);
    writeFileAtomic(b.string(), [&](std::ostream &out) {
        for (size_t at = 0; at < data.size(); at += 4093)
            out << data.substr(at, 4093);
    });
    EXPECT_EQ(slurp(a), data);
    EXPECT_EQ(slurp(b), data);
}

TEST_F(AtomicFileTest, ThrowingWriterLeavesOldTargetAndNoTemporary)
{
    // An interrupted write: part of the output is on the stream when
    // the writer throws. The caller sees its exception, the target
    // keeps its old bytes and no .tmp. sibling is left.
    fs::path target = dir_ / "report.json";
    writeFileAtomic(target.string(), "original");
    EXPECT_THROW(writeFileAtomic(target.string(),
                                 [](std::ostream &out) {
                                     out << std::string(200000, 'p');
                                     throw std::runtime_error("cut");
                                 }),
                 std::runtime_error);
    EXPECT_EQ(slurp(target), "original");
    EXPECT_EQ(entries(), std::vector<std::string>{"report.json"});
}

TEST_F(AtomicFileTest, WriterWhoseStreamGoesBadFailsAndLeavesOldTarget)
{
    fs::path target = dir_ / "report.json";
    writeFileAtomic(target.string(), "original");
    try {
        writeFileAtomic(target.string(), [](std::ostream &out) {
            out << "partial";
            out.setstate(std::ios::badbit);
        });
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("cannot write '"),
                  std::string::npos)
            << err.what();
    }
    EXPECT_EQ(slurp(target), "original");
    EXPECT_EQ(entries(), std::vector<std::string>{"report.json"});
}

} // namespace
} // namespace gables
