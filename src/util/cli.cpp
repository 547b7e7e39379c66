#include "util/cli.hpp"

#include <iostream>
#include <sstream>
#include <stdexcept>

namespace dlouvain::util {

namespace {

std::string strip_dashes(const std::string& arg) {
  std::size_t i = 0;
  while (i < arg.size() && arg[i] == '-') ++i;
  return arg.substr(i);
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "prog";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("positional arguments are not supported: " + arg);
    }
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    std::string name;
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = strip_dashes(arg.substr(0, eq));
      value = arg.substr(eq + 1);
    } else {
      name = strip_dashes(arg);
      // A value follows unless the next token is another flag (or absent):
      // that makes `--verbose --n 5` parse --verbose as a switch.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    values_[name] = value;
    consumed_[name] = false;
  }
}

std::optional<std::string> Cli::raw(const std::string& name) {
  if (auto it = values_.find(name); it != values_.end()) {
    consumed_[name] = true;
    return it->second;
  }
  return std::nullopt;
}

std::string Cli::get_string(const std::string& name, std::string def,
                            const std::string& help) {
  help_lines_.push_back("  --" + name + " <str>  (default: " + def + ") " + help);
  return raw(name).value_or(std::move(def));
}

double Cli::get_double(const std::string& name, double def, const std::string& help) {
  help_lines_.push_back("  --" + name + " <num>  (default: " + std::to_string(def) +
                        ") " + help);
  if (auto v = raw(name)) return parse<double>(name, *v);
  return def;
}

bool Cli::get_flag(const std::string& name, bool def, const std::string& help) {
  help_lines_.push_back("  --" + name + "  (default: " + (def ? "true" : "false") +
                        ") " + help);
  if (auto v = raw(name)) return *v == "true" || *v == "1" || *v == "yes";
  return def;
}

std::vector<std::int64_t> Cli::get_int_list(const std::string& name,
                                            std::vector<std::int64_t> def,
                                            const std::string& help) {
  help_lines_.push_back("  --" + name + " <i,j,...>  " + help);
  auto v = raw(name);
  if (!v) return def;
  std::vector<std::int64_t> out;
  std::stringstream ss(*v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(parse<std::int64_t>(name, item));
  }
  return out;
}

std::vector<double> Cli::get_double_list(const std::string& name,
                                         std::vector<double> def,
                                         const std::string& help) {
  help_lines_.push_back("  --" + name + " <x,y,...>  " + help);
  auto v = raw(name);
  if (!v) return def;
  std::vector<double> out;
  std::stringstream ss(*v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(parse<double>(name, item));
  }
  return out;
}

bool Cli::finish() const {
  if (help_requested_) {
    std::cerr << "usage: " << program_ << " [flags]\n";
    for (const auto& line : help_lines_) std::cerr << line << '\n';
    return false;
  }
  bool ok = true;
  for (const auto& [name, used] : consumed_) {
    if (!used) {
      std::cerr << program_ << ": unknown flag --" << name << '\n';
      ok = false;
    }
  }
  if (!ok) {
    std::cerr << "run with --help for the flag list\n";
  }
  return ok;
}

int run_main(int argc, const char* const* argv, int (*body)(Cli&)) {
  try {
    Cli cli(argc, argv);
    return body(cli);
  } catch (const std::exception& e) {
    std::cerr << (argc > 0 ? argv[0] : "prog") << ": " << e.what() << '\n';
    return 1;
  }
}

}  // namespace dlouvain::util
