/**
 * @file
 * A small command-line argument parser for the `gables` CLI. Supports
 * `--flag`, `--name value`, `--name=value`, typed accessors,
 * positional arguments, and generated usage text.
 *
 * Parsing is strict: unknown options fail with a did-you-mean
 * suggestion over the declared option set, and options declared with
 * addIntOption()/addDoubleOption() are validated at parse() time via
 * the full-token parsers in util/parse.h, so `--jobs=abc` is a loud
 * usage error instead of silently becoming 0.
 *
 * The declaration is the only source of a default: an absent option
 * reads as its declared default, parsed by the same strict parser as
 * a supplied value, so the "(default: X)" that usage() prints is the
 * value the program uses.
 */

#ifndef GABLES_UTIL_ARG_PARSER_H
#define GABLES_UTIL_ARG_PARSER_H

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gables {

/**
 * Declarative option table + parse result in one object.
 */
class ArgParser
{
  public:
    /**
     * @param program  Program name for usage text.
     * @param synopsis One-line description of the tool.
     */
    ArgParser(std::string program, std::string synopsis);

    /**
     * Declare a value option.
     *
     * @param name Long name without dashes, e.g. "bpeak".
     * @param help Help text.
     * @param def  Value the getters return while the option is
     *             absent; usage() prints it as "(default: X)".
     */
    void addOption(const std::string &name, const std::string &help,
                   const std::string &def = "");

    /**
     * Declare an integer option; parse() rejects values with trailing
     * garbage or outside long's range. A non-empty @p def must pass
     * the same check: a malformed one panics here.
     */
    void addIntOption(const std::string &name, const std::string &help,
                      const std::string &def = "");

    /**
     * Declare a floating-point option; parse() rejects non-numeric
     * values and trailing garbage. A non-empty @p def must pass the
     * same check: a malformed one panics here.
     */
    void addDoubleOption(const std::string &name,
                         const std::string &help,
                         const std::string &def = "");

    /** Declare a boolean flag (present/absent). */
    void addFlag(const std::string &name, const std::string &help);

    /**
     * Parse argv. Unknown options are an error (with a did-you-mean
     * suggestion); typed option values are validated eagerly; "--"
     * ends option processing.
     *
     * @return True on success; false if parsing failed or --help was
     *         requested (usage is printed to the given stream). Use
     *         helpRequested() to tell the two apart for the CLI's
     *         exit-code contract (0 for help, 2 for usage errors).
     */
    bool parse(int argc, const char *const *argv, std::ostream &err);

    /** @return True when the last parse() saw --help. */
    bool helpRequested() const { return help_requested_; }

    /** @return True if the flag or option @p name was supplied
     * (false for a name that was never declared). */
    bool has(const std::string &name) const;

    /**
     * @return The last value supplied for option @p name (getStrings()
     *         returns them all), else its declared default. Like every
     *         getter, panics when @p name was never declared.
     */
    std::string getString(const std::string &name) const;

    /**
     * @return Every occurrence of option @p name in command-line
     *         order; empty when absent. List-valued options (e.g.
     *         `report diff --ignore`) accept both one
     *         comma-separated occurrence and repeated flags.
     */
    std::vector<std::string> getStrings(const std::string &name) const;

    /**
     * @return getString(@p name) as a double.
     * @throws FatalError if that is not a full-token number (never for
     *         addDoubleOption() options: parse() and the declaration
     *         check their values and default).
     */
    double getDouble(const std::string &name) const;

    /**
     * @return getString(@p name) as an integer.
     * @throws FatalError if that is not a full-token integer.
     */
    long getInt(const std::string &name) const;

    /** @return The program name diagnostics start with, e.g.
     * "gables eval". */
    const std::string &program() const { return program_; }

    /** @return Positional (non-option) arguments in order. */
    const std::vector<std::string> &positional() const { return pos_; }

    /** @return Generated usage text. */
    std::string usage() const;

  private:
    /** Value type enforced when the option is parsed. */
    enum class Kind { String, Int, Double, Flag };

    struct Spec {
        std::string help;
        std::string def;
        Kind kind;
    };

    std::string program_;
    std::string synopsis_;
    std::vector<std::pair<std::string, Spec>> specs_;
    std::map<std::string, std::vector<std::string>> values_;
    std::vector<std::string> pos_;
    bool help_requested_ = false;

    void declare(const std::string &name, const std::string &help,
                 const std::string &def, Kind kind);
    const Spec *findSpec(const std::string &name) const;
    const Spec &declared(const std::string &name) const;
    bool checkValue(const std::string &name, const Spec &spec,
                    const std::string &value, std::ostream &err) const;
};

} // namespace gables

#endif // GABLES_UTIL_ARG_PARSER_H
