#include "options.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

namespace rasengan::tools {

namespace {

const Option *
findOption(const OptionTable &table, const std::string &name)
{
    for (const Option &option : table)
        if (name == option.flag)
            return &option;
    return nullptr;
}

} // namespace

Option
text(std::string flag, std::string metavar, std::string help,
     std::string *field)
{
    auto store = [field](const std::string &v) {
        *field = v;
        return std::string();
    };
    return {std::move(flag), std::move(metavar), std::move(help), "",
            std::move(store)};
}

Option
toggle(std::string flag, std::string help, bool *field)
{
    auto store = [field](const std::string &) {
        *field = true;
        return std::string();
    };
    return {std::move(flag), "", std::move(help), "", std::move(store)};
}

Option
choice(std::string flag, std::vector<std::string> values, std::string help,
       std::string *field)
{
    std::string metavar;
    for (const std::string &v : values)
        metavar += (metavar.empty() ? "" : "|") + v;
    auto store = [field, values, metavar](const std::string &v) {
        for (const std::string &allowed : values) {
            if (v == allowed) {
                *field = v;
                return std::string();
            }
        }
        return "'" + v + "' is not one of " + metavar;
    };
    return {std::move(flag), std::move(metavar), std::move(help), "",
            std::move(store)};
}

Option
withEnv(Option option, std::string env)
{
    option.env = std::move(env);
    return option;
}

std::string
parseOptions(const OptionTable &table, int argc, const char *const *argv)
{
    std::set<std::string> given;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const Option *option = findOption(table, flag);
        if (option == nullptr)
            return flag + ": unknown flag";
        std::string value;
        if (!option->metavar.empty()) {
            if (i + 1 >= argc)
                return flag + ": missing value (" + option->metavar + ")";
            value = argv[++i];
        }
        const std::string error = option->store(value);
        if (!error.empty())
            return flag + ": " + error;
        given.insert(flag);
    }
    for (const Option &option : table) {
        if (option.env.empty() || given.count(option.flag) != 0)
            continue;
        if (const char *value = std::getenv(option.env.c_str())) {
            const std::string error = option.store(value);
            if (!error.empty())
                return option.env + " (for " + option.flag + "): " + error;
        }
    }
    return "";
}

std::string
usageText(const CommandLine &cli)
{
    size_t width = 0;
    for (const Option &option : cli.options)
        width = std::max(width,
                         option.flag.size() + 1 + option.metavar.size());
    width = std::min<size_t>(width, 28);

    std::string out = "usage: " + cli.name + " " + cli.synopsis + "\n";
    for (const Option &option : cli.options) {
        std::string head = option.flag;
        if (!option.metavar.empty())
            head += " " + option.metavar;
        std::string help = option.help;
        if (!option.env.empty())
            help += " (env " + option.env + ")";
        out += "  " + head;
        if (head.size() > width)
            out += "\n  " + std::string(width, ' ');
        else
            out += std::string(width - head.size(), ' ');
        out += "  " + help + "\n";
    }
    return out;
}

void
printUsageError(const CommandLine &cli, const std::string &diagnostic)
{
    std::fprintf(stderr, "%s\n%s", diagnostic.c_str(),
                 usageText(cli).c_str());
}

void
parseOrExit(const CommandLine &cli, int argc, char **argv)
{
    const std::string error = parseOptions(cli.options, argc, argv);
    if (!error.empty()) {
        printUsageError(cli, error);
        std::exit(1);
    }
}

} // namespace rasengan::tools
