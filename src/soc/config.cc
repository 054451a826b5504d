#include "soc/config.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "telemetry/span.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/strings.h"
#include "util/units.h"

namespace gables {

const Usecase &
SocConfig::usecase(const std::string &name) const
{
    for (const Usecase &u : usecases) {
        if (u.name() == name)
            return u;
    }
    std::vector<std::string> known;
    for (const Usecase &u : usecases)
        known.push_back(u.name());
    fatal("config has no usecase named '" + name + "'" +
          didYouMean(name, known));
}

namespace {

/** Parser state shared by the helpers: the diagnostic source name. */
struct ParseContext {
    std::string source;

    /** Raise a ConfigError pointing at @p line of this document. */
    [[noreturn]] void
    error(int line, const std::string &msg) const
    {
        configError(SourceLoc{source, line}, msg);
    }

    /**
     * Run @p fn (a numeric/unit parse) and re-raise its FatalError as
     * a located ConfigError.
     */
    template <typename Fn>
    auto
    located(int line, Fn &&fn) const -> decltype(fn())
    {
        try {
            return fn();
        } catch (const ConfigError &) {
            throw; // already located
        } catch (const FatalError &err) {
            error(line, err.what());
        }
    }
};

/** Strip comments (# or ;) outside of any quoting (we have none). */
std::string
stripComment(const std::string &line)
{
    size_t pos = line.find_first_of("#;");
    return pos == std::string::npos ? line : line.substr(0, pos);
}

/** Parse "fraction @ intensity"; intensity may be "inf". */
IpWork
parseWork(const ParseContext &ctx, const std::string &value, int line)
{
    size_t at = value.find('@');
    if (at == std::string::npos)
        ctx.error(line, "work value must be 'fraction @ intensity', "
                        "got '" + value + "'");
    std::string frac_text = trim(value.substr(0, at));
    std::string int_text = trim(value.substr(at + 1));
    double fraction = ctx.located(line, [&] {
        return parseDoubleStrict(frac_text, "fraction");
    });
    double intensity;
    if (toLower(int_text) == "inf") {
        intensity = std::numeric_limits<double>::infinity();
    } else {
        intensity = ctx.located(line, [&] {
            return parseDoubleStrict(int_text, "intensity");
        });
    }
    return IpWork{fraction, intensity};
}

struct PendingIp {
    std::string name;
    std::optional<double> accel;
    std::optional<double> bandwidth;
    int line;
};

struct PendingUsecase {
    std::string name;
    std::vector<std::pair<std::string, IpWork>> work;
    int line;
};

} // namespace

SocConfig
parseSocConfig(const std::string &text, const std::string &source)
{
    enum class Section { None, Soc, Ip, Usecase };

    ParseContext ctx{source};
    Section section = Section::None;
    std::string soc_name = "unnamed";
    std::optional<double> ppeak, bpeak;
    bool saw_soc = false;
    int soc_line = 0;
    std::vector<PendingIp> ips;
    std::vector<PendingUsecase> usecases;

    std::istringstream iss(text);
    std::string raw;
    int line_no = 0;
    while (std::getline(iss, raw)) {
        ++line_no;
        std::string line = trim(stripComment(raw));
        if (line.empty())
            continue;

        if (line.front() == '[') {
            if (line.back() != ']')
                ctx.error(line_no, "unterminated section header");
            std::string header = trim(line.substr(1, line.size() - 2));
            if (header == "soc") {
                if (saw_soc)
                    ctx.error(line_no,
                              "duplicate [soc] section (first defined "
                              "at line " + std::to_string(soc_line) +
                              ")");
                saw_soc = true;
                soc_line = line_no;
                section = Section::Soc;
            } else if (header == "ip" || startsWith(header, "ip ")) {
                // Bare "[ip]" (or "[ip ]", which trims to the same
                // header) is a missing name, not an unknown section.
                std::string name =
                    header == "ip" ? "" : trim(header.substr(3));
                if (name.empty())
                    ctx.error(line_no, "[ip] needs a name");
                for (const PendingIp &ip : ips) {
                    if (ip.name == name)
                        ctx.error(line_no,
                                  "duplicate IP '" + name +
                                      "' (first defined at line " +
                                      std::to_string(ip.line) + ")");
                }
                ips.push_back(PendingIp{name, {}, {}, line_no});
                section = Section::Ip;
            } else if (header == "usecase" ||
                       startsWith(header, "usecase ")) {
                std::string name =
                    header == "usecase" ? "" : trim(header.substr(8));
                if (name.empty())
                    ctx.error(line_no, "[usecase] needs a name");
                for (const PendingUsecase &u : usecases) {
                    if (u.name == name)
                        ctx.error(line_no,
                                  "duplicate usecase '" + name +
                                      "' (first defined at line " +
                                      std::to_string(u.line) +
                                      "); later sections would "
                                      "silently shadow earlier ones");
                }
                usecases.push_back(PendingUsecase{name, {}, line_no});
                section = Section::Usecase;
            } else {
                std::string kind = header.substr(0, header.find(' '));
                ctx.error(line_no,
                          "unknown section '[" + header + "]'" +
                              didYouMean(kind,
                                         {"soc", "ip", "usecase"}));
            }
            continue;
        }

        size_t eq = line.find('=');
        if (eq == std::string::npos)
            ctx.error(line_no, "expected 'key = value'");
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        if (key.empty() || value.empty())
            ctx.error(line_no, "empty key or value");

        switch (section) {
          case Section::None:
            ctx.error(line_no, "key outside any section");
          case Section::Soc:
            if (key == "name") {
                soc_name = value;
            } else if (key == "ppeak") {
                ppeak = ctx.located(line_no,
                                    [&] { return parseRate(value); });
            } else if (key == "bpeak") {
                bpeak = ctx.located(line_no,
                                    [&] { return parseRate(value); });
            } else {
                ctx.error(line_no,
                          "unknown [soc] key '" + key + "'" +
                              didYouMean(key,
                                         {"name", "ppeak", "bpeak"}));
            }
            break;
          case Section::Ip:
            if (key == "accel") {
                ips.back().accel = ctx.located(line_no, [&] {
                    return parseDoubleStrict(value, "accel");
                });
            } else if (key == "bandwidth") {
                ips.back().bandwidth = ctx.located(line_no, [&] {
                    return parseRate(value);
                });
            } else {
                ctx.error(line_no,
                          "unknown [ip] key '" + key + "'" +
                              didYouMean(key,
                                         {"accel", "bandwidth"}));
            }
            break;
          case Section::Usecase:
            for (const auto &[ip, work] : usecases.back().work) {
                if (ip == key)
                    ctx.error(line_no, "duplicate work entry for '" +
                                           key + "'");
            }
            usecases.back().work.emplace_back(
                key, parseWork(ctx, value, line_no));
            break;
        }
    }

    if (!saw_soc)
        ctx.error(1, "config is missing the [soc] section");
    if (!ppeak)
        ctx.error(soc_line, "config [soc] is missing 'ppeak'");
    if (!bpeak)
        ctx.error(soc_line, "config [soc] is missing 'bpeak'");
    if (ips.empty())
        ctx.error(soc_line, "config declares no [ip ...] sections");

    std::vector<IpSpec> specs;
    for (const PendingIp &ip : ips) {
        if (!ip.accel)
            ctx.error(ip.line,
                      "IP '" + ip.name + "' is missing 'accel'");
        if (!ip.bandwidth)
            ctx.error(ip.line,
                      "IP '" + ip.name + "' is missing 'bandwidth'");
        specs.push_back(IpSpec{ip.name, *ip.accel, *ip.bandwidth});
    }
    // SocSpec's constructor enforces the model invariants (positive
    // rates, A0 == 1); point any violation at the [soc] section.
    SocSpec soc = ctx.located(soc_line, [&] {
        return SocSpec(soc_name, *ppeak, *bpeak, std::move(specs));
    });

    std::vector<std::string> ip_names;
    for (size_t i = 0; i < soc.numIps(); ++i)
        ip_names.push_back(soc.ip(i).name);

    std::vector<Usecase> built;
    for (const PendingUsecase &pu : usecases) {
        std::vector<IpWork> work(soc.numIps(), IpWork{0.0, 1.0});
        for (const auto &[ip_name, w] : pu.work) {
            size_t idx;
            try {
                idx = soc.ipIndex(ip_name);
            } catch (const FatalError &) {
                ctx.error(pu.line,
                          "usecase '" + pu.name +
                              "' names unknown IP '" + ip_name + "'" +
                              didYouMean(ip_name, ip_names));
            }
            work[idx] = w;
        }
        // Usecase's constructor enforces fraction/intensity sanity
        // (fractions sum to 1, positive intensity where work lands).
        built.push_back(ctx.located(pu.line, [&] {
            return Usecase(pu.name, std::move(work));
        }));
    }
    return SocConfig{std::move(soc), std::move(built)};
}

std::string
readConfigFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file '" + path + "'");
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

SocConfig
loadSocConfig(const std::string &path)
{
    GABLES_SPAN("config.load");
    return parseSocConfig(readConfigFile(path), path);
}

std::vector<LintFinding>
lintSocConfig(const SocConfig &cfg)
{
    std::vector<LintFinding> findings;
    auto check = [&](bool error, const std::string &msg) {
        findings.push_back(LintFinding{error, msg});
    };

    // Re-run the model invariants defensively: a SocConfig built by
    // hand (not through parseSocConfig) may not have been validated.
    try {
        cfg.soc.validate();
    } catch (const FatalError &err) {
        check(true, err.what());
    }
    for (const Usecase &u : cfg.usecases) {
        try {
            u.validate();
        } catch (const FatalError &err) {
            check(true, err.what());
        }
        if (u.numIps() != cfg.soc.numIps())
            check(true, "usecase '" + u.name() + "' covers " +
                            std::to_string(u.numIps()) +
                            " IPs but the SoC declares " +
                            std::to_string(cfg.soc.numIps()));
    }

    if (cfg.usecases.empty())
        check(false, "config declares no usecases; nothing to "
                     "evaluate");

    // Unreferenced IPs: hardware that no usecase ever sends work to.
    for (size_t i = 0; i < cfg.soc.numIps(); ++i) {
        bool referenced = false;
        for (const Usecase &u : cfg.usecases)
            referenced = referenced ||
                         (i < u.numIps() && u.fraction(i) > 0.0);
        if (!referenced && !cfg.usecases.empty())
            check(false, "IP '" + cfg.soc.ip(i).name +
                             "' is not referenced by any usecase");
    }

    // IP links faster than the off-chip interface are legal (Bpeak
    // caps them) but usually a typo in one of the two rates.
    for (size_t i = 0; i < cfg.soc.numIps(); ++i) {
        if (cfg.soc.ip(i).bandwidth > cfg.soc.bpeak())
            check(false, "IP '" + cfg.soc.ip(i).name +
                             "' bandwidth " +
                             formatByteRate(cfg.soc.ip(i).bandwidth) +
                             " exceeds Bpeak " +
                             formatByteRate(cfg.soc.bpeak()) +
                             "; the off-chip interface caps it");
    }

    // Errors first, then warnings, each in declaration order.
    std::stable_sort(findings.begin(), findings.end(),
                     [](const LintFinding &a, const LintFinding &b) {
                         return a.error && !b.error;
                     });
    return findings;
}

std::string
formatSocConfig(const SocSpec &soc,
                const std::vector<Usecase> &usecases)
{
    std::ostringstream oss;
    oss << "[soc]\n"
        << "name  = " << soc.name() << '\n'
        << "ppeak = " << formatDouble(soc.ppeak(), 6) << '\n'
        << "bpeak = " << formatDouble(soc.bpeak(), 6) << '\n';
    for (const IpSpec &ip : soc.ips()) {
        oss << "\n[ip " << ip.name << "]\n"
            << "accel     = " << formatDouble(ip.acceleration, 9)
            << '\n'
            << "bandwidth = " << formatDouble(ip.bandwidth, 6) << '\n';
    }
    for (const Usecase &u : usecases) {
        if (u.numIps() != soc.numIps())
            fatal("formatSocConfig: usecase '" + u.name() +
                  "' does not match the SoC");
        oss << "\n[usecase " << u.name() << "]\n";
        for (size_t i = 0; i < u.numIps(); ++i) {
            const IpWork &w = u.at(i);
            if (w.fraction == 0.0)
                continue;
            // 12 significant digits so the reparsed fractions still
            // sum to 1 within Usecase's 1e-9 tolerance.
            oss << soc.ip(i).name << " = "
                << formatDouble(w.fraction, 12) << " @ "
                << (std::isinf(w.intensity)
                        ? std::string("inf")
                        : formatDouble(w.intensity, 9))
                << '\n';
        }
    }
    return oss.str();
}

} // namespace gables
