/**
 * @file
 * Tests for the SoC/usecase text configuration format.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "core/gables.h"
#include "soc/catalog.h"
#include "soc/config.h"
#include "telemetry/span.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/rng.h"

namespace gables {
namespace {

const char *kPaperConfig = R"(
# The paper's Figure 6 two-IP SoC.
[soc]
name  = paper two-IP
ppeak = 40 Gops/s
bpeak = 10 GB/s

[ip CPU]
accel     = 1
bandwidth = 6 GB/s

[ip GPU]
accel     = 5
bandwidth = 15 GB/s

[usecase 6a]
CPU = 1.0 @ 8

[usecase 6b]
CPU = 0.25 @ 8
GPU = 0.75 @ 0.1  ; poor reuse
)";

TEST(Config, ParsesPaperSoc)
{
    SocConfig cfg = parseSocConfig(kPaperConfig);
    EXPECT_EQ(cfg.soc.name(), "paper two-IP");
    EXPECT_DOUBLE_EQ(cfg.soc.ppeak(), 40e9);
    EXPECT_DOUBLE_EQ(cfg.soc.bpeak(), 10e9);
    ASSERT_EQ(cfg.soc.numIps(), 2u);
    EXPECT_EQ(cfg.soc.ip(0).name, "CPU");
    EXPECT_DOUBLE_EQ(cfg.soc.ip(1).acceleration, 5.0);
    EXPECT_DOUBLE_EQ(cfg.soc.ip(1).bandwidth, 15e9);
}

TEST(Config, ParsesUsecases)
{
    SocConfig cfg = parseSocConfig(kPaperConfig);
    ASSERT_EQ(cfg.usecases.size(), 2u);
    const Usecase &u = cfg.usecase("6b");
    EXPECT_DOUBLE_EQ(u.fraction(0), 0.25);
    EXPECT_DOUBLE_EQ(u.intensity(1), 0.1);
    // The omitted IP in 6a defaults to zero work.
    EXPECT_DOUBLE_EQ(cfg.usecase("6a").fraction(1), 0.0);
}

TEST(Config, ParsedConfigEvaluatesLikeCatalog)
{
    SocConfig cfg = parseSocConfig(kPaperConfig);
    double parsed =
        GablesModel::evaluate(cfg.soc, cfg.usecase("6b")).attainable;
    double catalog = GablesModel::evaluate(
                         SocCatalog::paperTwoIp(),
                         Usecase::twoIp("6b", 0.75, 8.0, 0.1))
                         .attainable;
    EXPECT_DOUBLE_EQ(parsed, catalog);
}

TEST(Config, InfIntensity)
{
    SocConfig cfg = parseSocConfig(R"(
[soc]
ppeak = 1 Gops/s
bpeak = 1 GB/s
[ip X]
accel = 1
bandwidth = 1 GB/s
[usecase pure]
X = 1 @ inf
)");
    EXPECT_TRUE(std::isinf(cfg.usecase("pure").intensity(0)));
}

TEST(Config, CommentsAndWhitespaceTolerated)
{
    SocConfig cfg = parseSocConfig(
        "  [soc]  # header comment\n"
        "name=x\n"
        "  ppeak =  2e9 ; trailing\n"
        "bpeak=1e9\n"
        "[ip A]\n"
        "accel=1\n"
        "bandwidth=5e8\n");
    EXPECT_EQ(cfg.soc.name(), "x");
    EXPECT_DOUBLE_EQ(cfg.soc.ip(0).bandwidth, 5e8);
}

TEST(Config, ErrorsCarryLineNumbers)
{
    try {
        parseSocConfig("[soc]\nppeak = 1e9\nbpeak = 1e9\nbogus\n");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &err) {
        // Diagnostics follow the compiler-style "source:line: message"
        // shape; the default source name is "config".
        EXPECT_NE(std::string(err.what()).find("config:4:"),
                  std::string::npos);
        EXPECT_EQ(err.where().line, 4);
    }
}

TEST(Config, LoadPutsPathInDiagnostic)
{
    std::string path = ::testing::TempDir() + "gables_cfg_bad.ini";
    {
        std::ofstream out(path);
        out << "[soc]\nppeak = 1e9\nbpeek = 1e9\n";
    }
    try {
        loadSocConfig(path);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &err) {
        EXPECT_NE(std::string(err.what()).find(path + ":3:"),
                  std::string::npos);
    }
}

/** A load is one `config.load` span, the read and parse inside it. */
TEST(Config, LoadRecordsOneConfigLoadSpan)
{
    telemetry::SpanTracer tracer;
    {
        struct Active {
            explicit Active(telemetry::SpanTracer &t)
            {
                telemetry::SpanTracer::setActive(&t);
            }
            ~Active() { telemetry::SpanTracer::setActive(nullptr); }
        } active(tracer);
        SocConfig cfg = loadSocConfig(std::string(GABLES_CONFIG_DIR) +
                                      "/paper_two_ip.ini");
        EXPECT_EQ(cfg.soc.numIps(), 2u);
    }
    telemetry::ProfileNode root = tracer.snapshot();
    ASSERT_EQ(root.children.size(), 1u);
    EXPECT_EQ(root.children[0].name, "config.load");
    EXPECT_EQ(root.children[0].count, 1u);
    EXPECT_TRUE(root.children[0].children.empty());
}

TEST(Config, UnknownKeySuggestsClosest)
{
    try {
        parseSocConfig("[soc]\nppeak = 1e9\nbpeek = 1e9\n");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &err) {
        EXPECT_NE(
            std::string(err.what()).find("did you mean 'bpeak'?"),
            std::string::npos);
    }
}

TEST(Config, DuplicateUsecaseReportsBothLines)
{
    const char *text = "[soc]\n"          // 1
                       "ppeak=1e9\n"      // 2
                       "bpeak=1e9\n"      // 3
                       "[ip A]\n"         // 4
                       "accel=1\n"        // 5
                       "bandwidth=1e9\n"  // 6
                       "[usecase u]\n"    // 7
                       "A = 1 @ 1\n"      // 8
                       "[usecase u]\n";   // 9
    try {
        parseSocConfig(text);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &err) {
        std::string what = err.what();
        EXPECT_EQ(err.where().line, 9);
        EXPECT_NE(what.find("duplicate usecase 'u'"),
                  std::string::npos);
        EXPECT_NE(what.find("first defined at line 7"),
                  std::string::npos);
    }
}

TEST(Config, UsecaseLookupSuggestsClosest)
{
    SocConfig cfg = parseSocConfig(kPaperConfig);
    try {
        cfg.usecase("6c");
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("did you mean"),
                  std::string::npos);
    }
}

TEST(Config, RejectsStructuralProblems)
{
    EXPECT_THROW(parseSocConfig(""), FatalError); // no [soc]
    EXPECT_THROW(parseSocConfig("[soc]\nbpeak = 1e9\n[ip A]\n"
                                "accel = 1\nbandwidth = 1e9\n"),
                 FatalError); // no ppeak
    EXPECT_THROW(parseSocConfig("[soc]\nppeak = 1e9\nbpeak = 1e9\n"),
                 FatalError); // no IPs
    EXPECT_THROW(
        parseSocConfig("[soc]\nppeak=1e9\nbpeak=1e9\n[ip A]\n"
                       "accel=1\nbandwidth=1e9\n[ip A]\naccel=1\n"
                       "bandwidth=1e9\n"),
        FatalError); // duplicate IP
    EXPECT_THROW(
        parseSocConfig("[soc]\nppeak=1e9\nbpeak=1e9\n[ip A]\n"
                       "accel=1\nbandwidth=1e9\n[usecase u]\n"
                       "Ghost = 1 @ 1\n"),
        FatalError); // unknown IP in usecase
    EXPECT_THROW(parseSocConfig("key = value\n"),
                 FatalError); // key outside section
    EXPECT_THROW(parseSocConfig("[mystery]\n"), FatalError);
    EXPECT_THROW(parseSocConfig("[soc\n"), FatalError);
}

TEST(Config, RejectsBadWorkSyntax)
{
    const char *prefix = "[soc]\nppeak=1e9\nbpeak=1e9\n[ip A]\n"
                         "accel=1\nbandwidth=1e9\n[usecase u]\n";
    EXPECT_THROW(parseSocConfig(std::string(prefix) + "A = 0.5\n"),
                 FatalError); // missing @
    EXPECT_THROW(
        parseSocConfig(std::string(prefix) + "A = x @ 1\n"),
        FatalError);
    EXPECT_THROW(
        parseSocConfig(std::string(prefix) + "A = 1 @ fast\n"),
        FatalError);
    EXPECT_THROW(parseSocConfig(std::string(prefix) +
                                "A = 0.5 @ 1\nA = 0.5 @ 1\n"),
                 FatalError); // duplicate entry
}

TEST(Config, FormatRoundTrips)
{
    SocSpec soc = SocCatalog::snapdragon835();
    std::vector<Usecase> usecases = {
        Usecase("mix", {IpWork{0.25, 8.0}, IpWork{0.7, 0.5},
                        IpWork{0.05, 2.0}}),
        Usecase("pure", {IpWork{1.0,
                                std::numeric_limits<double>::infinity()},
                         IpWork{0.0, 1.0}, IpWork{0.0, 1.0}}),
    };
    std::string text = formatSocConfig(soc, usecases);
    SocConfig cfg = parseSocConfig(text);
    EXPECT_EQ(cfg.soc.name(), soc.name());
    EXPECT_DOUBLE_EQ(cfg.soc.bpeak(), soc.bpeak());
    ASSERT_EQ(cfg.usecases.size(), 2u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_NEAR(cfg.usecase("mix").fraction(i),
                    usecases[0].fraction(i), 1e-9);
    }
    EXPECT_TRUE(std::isinf(cfg.usecase("pure").intensity(0)));
}

// Every parse-error branch in config.cc, one row each. All of them
// must throw a ConfigError whose message carries a "config:<line>:"
// location plus the branch's distinguishing text.
TEST(Config, EveryErrorBranchCarriesALocation)
{
    // A minimal valid prefix (lines 1..6) used by rows that need a
    // well-formed SoC before the broken part.
    const std::string kSoc = "[soc]\nppeak=1e9\nbpeak=1e9\n"
                             "[ip A]\naccel=1\nbandwidth=1e9\n";
    struct Case {
        std::string text;
        int line;
        const char *want;
    };
    const Case cases[] = {
        {"[soc\n", 1, "unterminated section header"},
        {kSoc + "[soc]\n", 7, "duplicate [soc] section"},
        {"[ip ]\n", 1, "[ip] needs a name"},
        {kSoc + "[ip A]\naccel=1\nbandwidth=1e9\n", 7,
         "duplicate IP 'A' (first defined at line 4)"},
        {"[usecase ]\n", 1, "[usecase] needs a name"},
        {kSoc + "[usecase u]\nA = 1 @ 1\n[usecase u]\n", 9,
         "duplicate usecase 'u' (first defined at line 7)"},
        {"[mystery]\n", 1, "unknown section"},
        {kSoc + "bogus\n", 7, "expected 'key = value'"},
        {kSoc + "x =\n", 7, "empty key or value"},
        {"key = value\n", 1, "key outside any section"},
        {"[soc]\nbpeek = 1e9\n", 2, "unknown [soc] key 'bpeek'"},
        {"[soc]\nppeak=1e9\nbpeak=1e9\n[ip A]\nspeed = 2\n", 5,
         "unknown [ip] key 'speed'"},
        {"[soc]\nppeak=1e9\nbpeak=1e9\n[ip A]\naccel = fast\n", 5,
         "cannot parse accel"},
        {kSoc + "[usecase u]\nA = 1 @ 1\nA = 1 @ 1\n", 9,
         "duplicate work entry for 'A'"},
        {kSoc + "[usecase u]\nA = x @ 1\n", 8,
         "cannot parse fraction"},
        {kSoc + "[usecase u]\nA = 1 @ fast\n", 8,
         "cannot parse intensity"},
        {kSoc + "[usecase u]\nA = 0.5\n", 8,
         "work value must be 'fraction @ intensity'"},
        {"[soc]\nppeak=1e9\nbpeak=1e9\n[ip A]\nbandwidth=1e9\n", 4,
         "IP 'A' is missing 'accel'"},
        {"[soc]\nppeak=1e9\nbpeak=1e9\n[ip A]\naccel=1\n", 4,
         "IP 'A' is missing 'bandwidth'"},
        {kSoc + "[usecase u]\nGhost = 1 @ 1\n", 7,
         "names unknown IP 'Ghost'"},
        {"", 1, "missing the [soc] section"},
        {"[soc]\nbpeak=1e9\n[ip A]\naccel=1\nbandwidth=1e9\n", 1,
         "missing 'ppeak'"},
        {"[soc]\nppeak=1e9\n[ip A]\naccel=1\nbandwidth=1e9\n", 1,
         "missing 'bpeak'"},
        {"[soc]\nppeak=1e9\nbpeak=1e9\n", 1,
         "declares no [ip ...] sections"},
        // Model invariants re-raised with the section's location.
        {"[soc]\nppeak=0\nbpeak=1e9\n[ip A]\naccel=1\n"
         "bandwidth=1e9\n", 1, "Ppeak must be positive"},
        {kSoc + "[usecase u]\nA = 0.5 @ 1\n", 7,
         "fractions sum to"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.text);
        try {
            parseSocConfig(c.text);
            FAIL() << "expected ConfigError";
        } catch (const ConfigError &err) {
            std::string what = err.what();
            EXPECT_NE(what.find("config:" + std::to_string(c.line) +
                                ":"),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find(c.want), std::string::npos) << what;
        }
    }
}

// Property: formatSocConfig -> parseSocConfig is the identity (to
// formatting precision) for randomly generated SoCs and usecases.
TEST(Config, FormatParseRoundTripRandomized)
{
    Rng rng(0xC0FFEE);
    for (int iter = 0; iter < 25; ++iter) {
        SCOPED_TRACE(iter);
        size_t n = 1 + static_cast<size_t>(rng.next() % 4);
        std::vector<IpSpec> ips;
        for (size_t i = 0; i < n; ++i) {
            ips.push_back(IpSpec{"IP" + std::to_string(i),
                                 i == 0 ? 1.0 : rng.uniform(0.5, 20.0),
                                 rng.uniform(1e9, 40e9)});
        }
        SocSpec soc("rand", rng.uniform(10e9, 100e9),
                    rng.uniform(5e9, 30e9), std::move(ips));

        std::vector<double> f(n);
        double sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            f[i] = rng.uniform(0.01, 1.0);
            sum += f[i];
        }
        std::vector<IpWork> work;
        for (size_t i = 0; i < n; ++i)
            work.push_back(IpWork{f[i] / sum,
                                  rng.uniform(0.1, 16.0)});
        Usecase u("mix", std::move(work));

        SocConfig cfg = parseSocConfig(formatSocConfig(soc, {u}));
        EXPECT_NEAR(cfg.soc.ppeak(), soc.ppeak(),
                    soc.ppeak() * 1e-5);
        EXPECT_NEAR(cfg.soc.bpeak(), soc.bpeak(),
                    soc.bpeak() * 1e-5);
        ASSERT_EQ(cfg.soc.numIps(), n);
        ASSERT_EQ(cfg.usecases.size(), 1u);
        for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ(cfg.soc.ip(i).name, soc.ip(i).name);
            EXPECT_NEAR(cfg.soc.ip(i).acceleration,
                        soc.ip(i).acceleration,
                        soc.ip(i).acceleration * 1e-8);
            EXPECT_NEAR(cfg.soc.ip(i).bandwidth, soc.ip(i).bandwidth,
                        soc.ip(i).bandwidth * 1e-5);
            EXPECT_NEAR(cfg.usecase("mix").fraction(i), u.fraction(i),
                        1e-8);
            if (u.fraction(i) > 0.0) {
                EXPECT_NEAR(cfg.usecase("mix").intensity(i),
                            u.intensity(i), u.intensity(i) * 1e-8);
            }
        }
    }
}

TEST(Config, LintFlagsAdvisoryFindings)
{
    // Unreferenced IP + IP bandwidth above Bpeak: two warnings, no
    // errors.
    SocConfig cfg = parseSocConfig(
        "[soc]\nppeak = 40e9\nbpeak = 10e9\n"
        "[ip CPU]\naccel = 1\nbandwidth = 6e9\n"
        "[ip GPU]\naccel = 5\nbandwidth = 15e9\n"
        "[usecase u]\nCPU = 1 @ 8\n");
    std::vector<LintFinding> findings = lintSocConfig(cfg);
    ASSERT_EQ(findings.size(), 2u);
    for (const LintFinding &f : findings)
        EXPECT_FALSE(f.error);
    EXPECT_NE(findings[0].message.find("GPU"), std::string::npos);
    // A clean config yields no findings at all.
    EXPECT_TRUE(lintSocConfig(parseSocConfig(
                                  "[soc]\nppeak = 4e9\nbpeak = 9e9\n"
                                  "[ip CPU]\naccel = 1\n"
                                  "bandwidth = 6e9\n"
                                  "[usecase u]\nCPU = 1 @ 8\n"))
                    .empty());
    // No usecases at all is worth a nudge.
    std::vector<LintFinding> none = lintSocConfig(
        parseSocConfig("[soc]\nppeak = 4e9\nbpeak = 9e9\n"
                       "[ip CPU]\naccel = 1\nbandwidth = 6e9\n"));
    ASSERT_FALSE(none.empty());
    EXPECT_NE(none[0].message.find("no usecases"), std::string::npos);
}

TEST(Config, LintSortsErrorsFirst)
{
    // Hand-build a mismatched config (bypassing parseSocConfig) so an
    // error finding coexists with a warning.
    SocConfig cfg = parseSocConfig(
        "[soc]\nppeak = 4e9\nbpeak = 9e9\n"
        "[ip CPU]\naccel = 1\nbandwidth = 6e9\n"
        "[ip GPU]\naccel = 5\nbandwidth = 7e9\n");
    cfg.usecases.push_back(Usecase("tiny", {IpWork{1.0, 8.0}}));
    std::vector<LintFinding> findings = lintSocConfig(cfg);
    ASSERT_GE(findings.size(), 2u);
    EXPECT_TRUE(findings.front().error);
    EXPECT_EQ(findings.front().message,
              "usecase 'tiny' has 1 IP entries but SoC 'unnamed' has "
              "2 IPs");
    EXPECT_FALSE(findings.back().error);
}

TEST(Config, LoadFromFile)
{
    std::string path = ::testing::TempDir() + "gables_cfg_test.ini";
    {
        std::ofstream out(path);
        out << kPaperConfig;
    }
    SocConfig cfg = loadSocConfig(path);
    EXPECT_EQ(cfg.soc.numIps(), 2u);
    EXPECT_THROW(loadSocConfig("/nonexistent/nowhere.ini"),
                 FatalError);
}

} // namespace
} // namespace gables
