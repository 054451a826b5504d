/**
 * @file
 * A plain-text description format for SoCs and usecases, so designs
 * can be written down, versioned, and fed to the `gables` CLI
 * without recompiling — the counterpart of the paper's interactive
 * visualizer inputs.
 *
 * Format (INI-flavoured):
 *
 * @code
 *   [soc]
 *   name  = paper two-IP
 *   ppeak = 40 Gops/s
 *   bpeak = 10 GB/s
 *
 *   [ip CPU]
 *   accel     = 1
 *   bandwidth = 6 GB/s
 *
 *   [ip GPU]
 *   accel     = 5
 *   bandwidth = 15 GB/s
 *
 *   [usecase 6b]
 *   CPU = 0.25 @ 8
 *   GPU = 0.75 @ 0.1
 * @endcode
 *
 * Rules: one `[soc]` section (required); `[ip NAME]` sections in
 * declaration order (IP[0] first, accel must be 1); any number of
 * `[usecase NAME]` sections whose keys are IP names and values are
 * `fraction @ intensity` (intensity may be `inf`; omitted IPs get
 * fraction 0). `#` and `;` start comments. Rates accept the unit
 * suffixes of parseRate().
 */

#ifndef GABLES_SOC_CONFIG_H
#define GABLES_SOC_CONFIG_H

#include <optional>
#include <string>
#include <vector>

#include "core/soc_spec.h"
#include "core/usecase.h"

namespace gables {

/** A parsed configuration: one SoC and its usecases. */
struct SocConfig {
    /** The hardware description. */
    SocSpec soc;
    /** Usecases in file order, index-aligned with the SoC's IPs. */
    std::vector<Usecase> usecases;

    /** @return The usecase named @p name.
     * @throws FatalError if absent (with a did-you-mean suggestion
     *         over the declared usecase names). */
    const Usecase &usecase(const std::string &name) const;
};

/**
 * Parse a configuration document.
 *
 * @param text   The document text.
 * @param source Input name used in diagnostics ("file" of the
 *               file:line location); defaults to "config" for
 *               in-memory documents.
 * @return The parsed configuration.
 * @throws ConfigError with a "source:line: message" diagnostic on any
 *         syntax or semantic error; unknown sections and keys carry a
 *         did-you-mean suggestion over the known-key set.
 */
SocConfig parseSocConfig(const std::string &text,
                         const std::string &source = "config");

/**
 * Read a configuration file's bytes.
 *
 * @param path Filesystem path.
 * @throws FatalError if the file cannot be read.
 */
std::string readConfigFile(const std::string &path);

/**
 * Load and parse a configuration file. Diagnostics use the file path
 * as the location ("path:line: message").
 *
 * @param path Filesystem path.
 * @throws FatalError if the file cannot be read; ConfigError if it
 *         cannot be parsed.
 */
SocConfig loadSocConfig(const std::string &path);

/**
 * One finding from lintSocConfig(): either a hard error or an
 * advisory warning about a parseable-but-suspect configuration.
 */
struct LintFinding {
    /** True for problems that should fail `gables validate`. */
    bool error;
    /** Human-readable description. */
    std::string message;
};

/**
 * Lint a parsed configuration without evaluating anything: re-checks
 * the model invariants (positive rates, fractions summing to 1) and
 * flags advisory conditions — IPs no usecase references, a config
 * with no usecases, and IP links faster than the off-chip interface.
 *
 * @return Findings in severity-then-declaration order; empty when the
 *         configuration is clean.
 */
std::vector<LintFinding> lintSocConfig(const SocConfig &cfg);

/**
 * Serialize a SoC and usecases back to the text format (round-trips
 * through parseSocConfig).
 */
std::string formatSocConfig(const SocSpec &soc,
                            const std::vector<Usecase> &usecases);

} // namespace gables

#endif // GABLES_SOC_CONFIG_H
