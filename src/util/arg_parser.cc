#include "util/arg_parser.h"

#include <ostream>
#include <sstream>

#include "util/logging.h"
#include "util/parse.h"
#include "util/strings.h"

namespace gables {

ArgParser::ArgParser(std::string program, std::string synopsis)
    : program_(std::move(program)), synopsis_(std::move(synopsis))
{
    addFlag("help", "show this help text");
}

void
ArgParser::declare(const std::string &name, const std::string &help,
                   const std::string &def, Kind kind)
{
    Spec spec{help, def, kind};
    std::ostringstream err;
    if (!def.empty() && !checkValue(name, spec, def, err))
        panic(program_ + ": option --" + name +
              " declares a malformed default '" + def + "'");
    specs_.emplace_back(name, std::move(spec));
}

void
ArgParser::addOption(const std::string &name, const std::string &help,
                     const std::string &def)
{
    declare(name, help, def, Kind::String);
}

void
ArgParser::addIntOption(const std::string &name, const std::string &help,
                        const std::string &def)
{
    declare(name, help, def, Kind::Int);
}

void
ArgParser::addDoubleOption(const std::string &name,
                           const std::string &help,
                           const std::string &def)
{
    declare(name, help, def, Kind::Double);
}

void
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    declare(name, help, "", Kind::Flag);
}

const ArgParser::Spec *
ArgParser::findSpec(const std::string &name) const
{
    for (const auto &[n, spec] : specs_) {
        if (n == name)
            return &spec;
    }
    return nullptr;
}

bool
ArgParser::checkValue(const std::string &name, const Spec &spec,
                      const std::string &value, std::ostream &err) const
{
    try {
        if (spec.kind == Kind::Int)
            parseIntStrict(value, "option --" + name);
        else if (spec.kind == Kind::Double)
            parseDoubleStrict(value, "option --" + name);
    } catch (const FatalError &) {
        err << program_ << ": option --" << name << " expects "
            << (spec.kind == Kind::Int ? "an integer" : "a number")
            << ", got '" << value << "'\n";
        return false;
    }
    return true;
}

bool
ArgParser::parse(int argc, const char *const *argv, std::ostream &err)
{
    help_requested_ = false;
    bool options_done = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (options_done || !startsWith(arg, "--")) {
            pos_.push_back(arg);
            continue;
        }
        if (arg == "--") {
            options_done = true;
            continue;
        }
        std::string body = arg.substr(2);
        std::string name = body;
        std::optional<std::string> inline_value;
        size_t eq = body.find('=');
        if (eq != std::string::npos) {
            name = body.substr(0, eq);
            inline_value = body.substr(eq + 1);
        }
        const Spec *spec = findSpec(name);
        if (!spec) {
            std::vector<std::string> known;
            for (const auto &[n, s] : specs_)
                known.push_back(n);
            err << program_ << ": unknown option --" << name;
            if (std::optional<std::string> m = closestMatch(name, known))
                err << " (did you mean '--" << *m << "'?)";
            err << "\n" << usage();
            return false;
        }
        if (spec->kind == Kind::Flag) {
            if (inline_value) {
                err << program_ << ": flag --" << name
                    << " does not take a value\n";
                return false;
            }
            values_[name].push_back("1");
        } else {
            std::string value;
            if (inline_value) {
                value = *inline_value;
            } else {
                if (i + 1 >= argc) {
                    err << program_ << ": option --" << name
                        << " requires a value\n";
                    return false;
                }
                value = argv[++i];
            }
            if (!checkValue(name, *spec, value, err))
                return false;
            values_[name].push_back(value);
        }
    }
    if (has("help")) {
        help_requested_ = true;
        err << usage();
        return false;
    }
    return true;
}

bool
ArgParser::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

const ArgParser::Spec &
ArgParser::declared(const std::string &name) const
{
    const Spec *spec = findSpec(name);
    if (!spec)
        panic(program_ + ": option --" + name +
              " is read but was never declared");
    return *spec;
}

std::string
ArgParser::getString(const std::string &name) const
{
    const Spec &spec = declared(name);
    auto it = values_.find(name);
    return it == values_.end() ? spec.def : it->second.back();
}

std::vector<std::string>
ArgParser::getStrings(const std::string &name) const
{
    declared(name);
    auto it = values_.find(name);
    return it == values_.end() ? std::vector<std::string>()
                               : it->second;
}

double
ArgParser::getDouble(const std::string &name) const
{
    return parseDoubleStrict(getString(name), "option --" + name);
}

long
ArgParser::getInt(const std::string &name) const
{
    return parseIntStrict(getString(name), "option --" + name);
}

std::string
ArgParser::usage() const
{
    std::ostringstream oss;
    oss << "usage: " << program_ << " [options]\n  " << synopsis_
        << "\n\noptions:\n";
    for (const auto &[name, spec] : specs_) {
        const char *placeholder = "";
        switch (spec.kind) {
          case Kind::Flag: placeholder = ""; break;
          case Kind::Int: placeholder = " <int>"; break;
          case Kind::Double: placeholder = " <num>"; break;
          case Kind::String: placeholder = " <value>"; break;
        }
        std::string left = "  --" + name + placeholder;
        oss << padRight(left, 28) << spec.help;
        if (!spec.def.empty())
            oss << " (default: " << spec.def << ")";
        oss << '\n';
    }
    return oss.str();
}

} // namespace gables
