// Command-line flags for every front end (bench/ and examples/ mains): one
// parser, one syntax, one validation path.
//
// A front end declares the flags it accepts as a FlagSet; anything else on
// the command line is an error. A flag with a value is given as
// `--key value` or `--key=value`; a flag without one is a boolean and takes
// no value. Typed getters check each value against its type and range.
// Every input error throws FlagError with a one-line message naming the
// flag; run_main turns it into that message plus usage text and exit 2.
#pragma once

#include <cstdint>
#include <cstdio>
#include <exception>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace lossburst::util {

/// Malformed command-line input. what() names the offending flag.
class FlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One accepted flag: its name without the leading "--", the placeholder
/// shown for its value in usage text (empty for a boolean flag), and a
/// one-line description (may be empty).
struct FlagSpec {
  constexpr FlagSpec(std::string_view n, std::string_view v = {}, std::string_view h = {})
      : name(n), value_name(v), help(h) {}

  std::string_view name;
  std::string_view value_name;
  std::string_view help;

  [[nodiscard]] bool takes_value() const { return !value_name.empty(); }
};

using FlagSet = std::vector<FlagSpec>;

/// Concatenate two flag sets (shared groups such as the obs flags).
FlagSet operator+(FlagSet a, const FlagSet& b);

/// Usage text for `program` accepting `spec`, one flag per line.
std::string usage_text(std::string_view program, const FlagSet& spec);

class Flags {
 public:
  /// Parse `args` (argv without the program name) against `spec`. Throws
  /// FlagError on an unknown flag, a stray argument, a missing value, or a
  /// value given to a boolean flag. A repeated flag keeps its last value.
  /// When `spec` declares "help", "-h" is accepted as "--help".
  Flags(std::span<char* const> args, FlagSet spec);

  /// Getters: `fallback` when the flag is absent; FlagError when its value
  /// is malformed or outside [lo, hi]. Asking for a flag the spec does not
  /// declare, or with the wrong type, throws std::logic_error.
  [[nodiscard]] bool flag(std::string_view name) const;  ///< a boolean flag was given
  [[nodiscard]] bool has(std::string_view name) const;   ///< any flag was given
  [[nodiscard]] std::string text(std::string_view name, std::string fallback) const;
  [[nodiscard]] std::uint64_t integer(std::string_view name, std::uint64_t fallback,
                                      std::uint64_t lo, std::uint64_t hi) const;
  [[nodiscard]] double number(std::string_view name, double fallback, double lo,
                              double hi) const;

  [[nodiscard]] bool declares(std::string_view name) const;
  [[nodiscard]] const FlagSet& spec() const { return spec_; }

 private:
  struct Given {
    std::string_view name;
    std::string value;
  };
  [[nodiscard]] const FlagSpec& spec_of(std::string_view name) const;
  /// The last value given for `name`, or nullptr when it was not given.
  [[nodiscard]] const std::string* value_of(std::string_view name) const;
  /// value_of, for a flag that takes a value iff `takes_value`.
  [[nodiscard]] const std::string* typed_value_of(std::string_view name,
                                                  bool takes_value) const;

  FlagSet spec_;
  std::vector<Given> given_;
};

/// Shared main() for every front end: parse argv against `spec` and run
/// `body(flags)`, returning its exit status. A FlagError prints
/// "error: <msg>" and the usage text on stderr and exits 2; any other
/// std::exception prints "error: <what>" and exits 1.
template <typename Body>
int run_main(int argc, char** argv, const FlagSet& spec, Body&& body) {
  const std::string_view program = argc > 0 ? argv[0] : "lossburst";
  try {
    const Flags flags(std::span<char* const>(argv + 1, argc > 0 ? argc - 1 : 0), spec);
    return body(flags);
  } catch (const FlagError& e) {
    // lossburst-lint: allow(raw-stream): a front end's last words before it exits 2
    std::fprintf(stderr, "error: %s\n%s", e.what(), usage_text(program, spec).c_str());
    return 2;
  } catch (const std::exception& e) {
    // lossburst-lint: allow(raw-stream): a front end's last words before it exits 1
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace lossburst::util
