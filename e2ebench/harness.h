/**
 * @file
 * Helpers of the end-to-end benchmark that carry no timing of their
 * own: seeded input generation for the three workloads, percentile
 * math, operation/failure accounting, and output digests. They are
 * deterministic for a given seed and unit-tested in harness_test.cc;
 * main.cc drives the program with what they produce.
 */

#ifndef GABLES_E2EBENCH_HARNESS_H
#define GABLES_E2EBENCH_HARNESS_H

#include <cstdint>
#include <set>
#include <streambuf>
#include <string>
#include <vector>

#include "analysis/explorer.h"
#include "core/soc_spec.h"
#include "core/usecase.h"

namespace e2e {

/** splitmix64: a tiny, well-mixed generator whose sequence depends
 * only on the seed (std:: distributions are not portable). */
class SeededRng
{
  public:
    explicit SeededRng(uint64_t seed) : state_(seed) {}

    uint64_t next();
    /** @return Uniform double in [0, 1). */
    double uniform();
    /** @return Uniform double in [lo, hi). */
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
    /** @return Log-uniform double in [lo, hi). */
    double logUniform(double lo, double hi);
    /** @return Uniform index in [0, n); n >= 1. */
    size_t below(size_t n) { return static_cast<size_t>(next() % n); }

  private:
    uint64_t state_;
};

/**
 * Linear-interpolation percentile (the "inclusive" definition:
 * p = 0 is the minimum, p = 1 the maximum).
 *
 * @param values Samples; need not be sorted. Must be non-empty.
 * @param p      Quantile in [0, 1].
 * @throws std::invalid_argument on empty input or p outside [0, 1].
 */
double percentile(std::vector<double> values, double p);

/** @return percentile(values, 0.5). */
double median(std::vector<double> values);

/**
 * Operation and output-check accounting. An operation fails when the
 * program reports failure where success was expected (nonzero CLI
 * exit, serve response with the wrong ok/error kind). A check is an
 * output-correctness assertion; a failed check makes the run
 * incorrect but is not an operation. The first few messages of each
 * are kept for the report.
 */
class Tally
{
  public:
    static constexpr size_t kKeptMessages = 8;

    /** Count one operation; @p ok false counts it as failed. */
    void operation(bool ok, const std::string &what);
    /** Record one output check. */
    void check(bool ok, const std::string &what);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    uint64_t checksFailed() const { return checksFailed_; }
    /** @return failed / attempted (0 before the first operation). */
    double errorRate() const;
    /** @return No failed operation and no failed check. */
    bool correct() const { return failed_ == 0 && checksFailed_ == 0; }
    const std::vector<std::string> &messages() const { return messages_; }

  private:
    void keep(const std::string &what);

    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    uint64_t checksFailed_ = 0;
    std::vector<std::string> messages_;
};

/** FNV-1a digest and length of a byte stream. */
struct Digest {
    uint64_t hash = 14695981039346656037ull;
    uint64_t bytes = 0;

    void add(const char *data, size_t n);
    bool operator==(const Digest &o) const
    {
        return hash == o.hash && bytes == o.bytes;
    }
    bool operator!=(const Digest &o) const { return !(*this == o); }
};

/**
 * A std::streambuf that keeps nothing but a Digest of what is written
 * through it, plus the text of the lines whose 0-based indices are in
 * @p keepLines — so a command's stdout can be checked without holding
 * all of it in memory.
 */
class DigestBuf : public std::streambuf
{
  public:
    explicit DigestBuf(std::set<uint64_t> keepLines = {})
        : keep_(std::move(keepLines))
    {}

    const Digest &digest() const { return digest_; }
    /** @return Kept lines in index order (without the newline). */
    const std::vector<std::string> &keptLines() const { return kept_; }

  protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char *s, std::streamsize n) override;

  private:
    Digest digest_;
    std::set<uint64_t> keep_;
    uint64_t line_ = 0;
    std::string current_;
    std::vector<std::string> kept_;
};

/**
 * Digest a pretty-printed JSON file, leaving out the value of every
 * object member whose key is in @p skipKeys — the members that carry
 * wall-clock readings (`profile`, `parallel.worker_busy_s`) and so
 * never repeat. The file is streamed line by line.
 *
 * @throws std::runtime_error when the file cannot be read.
 */
Digest digestJsonFile(const std::string &path,
                      const std::set<std::string> &skipKeys);

/**
 * Fixed work in the benchmark's own code that no program change can
 * speed up: number formatting into many small strings, a streaming
 * hash over a fresh 16 MB buffer, and a binary-heap event loop. Timed
 * next to each pass, it measures how fast the host is at that moment.
 *
 * @return A digest of the work, so that it cannot be elided.
 */
uint64_t referenceWork();

/** The two intensities of one cli_sweep input. */
struct SweepInputs {
    double i0 = 1.0;
    double i1 = 1.0;
    /** Rows of the table the oracle re-derives (0-based). */
    std::vector<uint64_t> sampleRows;
};

/** Points of the cli_sweep grid. */
constexpr long kSweepPoints = 1000000;

SweepInputs makeSweepInputs(uint64_t seed);

/** @return The gables argv of one cli_sweep pass. */
std::vector<std::string> sweepArgv(const SweepInputs &in,
                                   const std::string &metricsPath);

/** @return The gables argvs of one cli_compute pass, in order:
 * robust, sim, ert CPU, ert GPU, ert DSP. */
std::vector<std::vector<std::string>> computeCommands(uint64_t seed);

/** Request classes of the serve mix. */
enum class ReqKind { Eval, EvalConfig, Sweep, Explore, Advise, Stats, Malformed };

/** @return A stable lower-case label ("eval", "eval_config", ...). */
const char *label(ReqKind kind);

/** One (SocSpec, Usecase) pair the mix refers to. */
struct ModelPair {
    gables::SocSpec soc;
    gables::Usecase usecase;
};

/** One knob of an explore grid. */
struct ExploreKnob {
    std::string knob; // "bpeak", "acceleration" or "ip_bandwidth"
    size_t ip = 0;    // ignored for "bpeak"
    std::vector<double> values;
};

/** One generated request line and what its response must say. */
struct ServeRequest {
    ReqKind kind = ReqKind::Eval;
    std::string line;
    /** "" = must succeed; otherwise the expected error kind. */
    std::string expectError;
    /** Index into ServeMix::pairs for inline model inputs, else -1. */
    int pair = -1;
    /** Config path and usecase name for EvalConfig requests. */
    std::string configPath;
    std::string configUsecase;
    /** Sweep axis, IP and values (Sweep requests). */
    std::string axis;
    size_t ip = 0;
    std::vector<double> values;
    /** Explore grid knobs (Explore requests). */
    std::vector<ExploreKnob> knobs;
    /** Grid size the request asks for (Sweep values, Explore grid). */
    size_t gridPoints = 0;
};

/** The cost model of every explore request. */
inline const gables::CostModel kExploreCost{1.0, 1e-9, 1e-9};

/** Per-pass request counts; fixed, so only values vary by seed. */
struct MixShape {
    size_t evalsInline = 1800;
    size_t evalsConfig = 96;
    size_t sweeps = 24;
    size_t explores = 30;
    size_t advises = 40;
    size_t stats = 4;
    size_t malformed = 20;
    /** Share of inline evals drawn from the hot pairs. */
    double hotShare = 0.9;
    size_t hotPairs = 48;
    size_t coldPairs = 4096;
    size_t sweepValues = 4096;
    /** Values per knob of the 4-knob explore grid. */
    size_t exploreKnobValues = 18;

    size_t total() const
    {
        return evalsInline + evalsConfig + sweeps + explores + advises +
               stats + malformed;
    }
};

/** The serve workload: its model pairs and one pass of requests in a
 * seeded interleaving. */
struct ServeMix {
    std::vector<ModelPair> pairs; // hot pairs first, then the cold pool
    size_t hotPairs = 0;
    std::vector<ServeRequest> requests;
};

/**
 * Build the serve mix for @p seed. @p configs name INI files (as the
 * service will open them) with the usecase names each declares.
 */
ServeMix makeServeMix(
    uint64_t seed, const MixShape &shape,
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        &configs);

/** @return An inline eval request line for @p pair. */
std::string evalLine(const ModelPair &pair, long id);

/**
 * @return Whether @p response is a success (when @p expectError is
 * empty) or an error of kind @p expectError, by a literal scan of the
 * protocol's fixed response shape.
 */
bool responseMatches(const std::string &response,
                     const std::string &expectError);

/**
 * Extract the number after `"<key>": ` in a compact JSON line.
 * @return false when the key is absent or the number does not parse.
 */
bool numberAfter(const std::string &text, const std::string &key,
                 double *out);

} // namespace e2e

#endif // GABLES_E2EBENCH_HARNESS_H
