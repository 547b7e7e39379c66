// Minimal command-line flag parser for the bench harnesses and examples.
//
// Supports `--name value` and `--name=value` forms plus boolean switches.
// Unknown flags are an error (catches typos in sweep scripts), and so is a
// numeric value unless the whole token parses and fits the type the caller
// stores. A program hands its body to run_main(), which reports such an
// error in one line.
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

namespace dlouvain::util {

class Cli {
 public:
  /// Parse argv. Throws std::invalid_argument on malformed input.
  Cli(int argc, const char* const* argv);

  /// Declare a flag with a default, returning its value. Declared flags are
  /// also what `help()` lists and what unknown-flag checking validates.
  /// Numeric getters throw std::invalid_argument naming the flag unless the
  /// whole value parses as a T (`--ranks 2x` is rejected, not read as 2).
  std::string get_string(const std::string& name, std::string def,
                         const std::string& help = "");
  template <typename T = std::int64_t>
  T get_int(const std::string& name, std::type_identity_t<T> def,
            const std::string& help = "") {
    static_assert(std::is_integral_v<T>);
    help_lines_.push_back("  --" + name + " <int>  (default: " + std::to_string(def) +
                          ") " + help);
    const auto v = raw(name);
    return v ? parse<T>(name, *v) : def;
  }
  double get_double(const std::string& name, double def,
                    const std::string& help = "");
  bool get_flag(const std::string& name, bool def = false,
                const std::string& help = "");

  /// Comma-separated list of integers, e.g. `--ranks 2,4,8`.
  std::vector<std::int64_t> get_int_list(const std::string& name,
                                         std::vector<std::int64_t> def,
                                         const std::string& help = "");
  /// Comma-separated list of doubles, e.g. `--alpha 0.25,0.75`.
  std::vector<double> get_double_list(const std::string& name,
                                      std::vector<double> def,
                                      const std::string& help = "");

  /// Call after all get_* declarations: errors out (returns false and prints
  /// to stderr) if the user passed a flag nobody declared, or passed --help.
  [[nodiscard]] bool finish() const;

  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::optional<std::string> raw(const std::string& name);

  /// `token` as a T: the whole token, within T's range.
  template <typename T>
  static T parse(const std::string& name, const std::string& token) {
    T value{};
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec == std::errc::result_out_of_range)
      throw std::invalid_argument("--" + name + " value '" + token + "' is out of range");
    if (ec != std::errc{} || ptr != end)
      throw std::invalid_argument("--" + name + " value '" + token + "' is not a " +
                                  (std::is_integral_v<T> ? "whole number" : "number"));
    return value;
  }

  std::string program_;
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> consumed_;
  mutable std::vector<std::string> help_lines_;
  bool help_requested_{false};
};

/// The `main` of a program whose flags are a Cli: parses argv and returns
/// what `body` returns. A malformed command line -- or any other exception
/// `body` lets out -- ends the program with one `<argv[0]>: <reason>` line
/// on stderr and status 1, not in std::terminate.
int run_main(int argc, const char* const* argv, int (*body)(Cli&));

}  // namespace dlouvain::util
