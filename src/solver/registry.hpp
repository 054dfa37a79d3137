// String-keyed solver registry: lookup by stable name, enumeration for
// the CLI and the campaign engine, duplicate-name rejection so two
// engines can never shadow each other silently.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "solver/solver.hpp"

namespace prts::solver {

/// A name -> solver table. Solvers are stateless and shared by const
/// pointer; a registry can be copied freely (the CLI builds one from the
/// builtin table and extends it with portfolios).
class SolverRegistry {
 public:
  /// Registers a solver under its own name(). Throws
  /// std::invalid_argument on a duplicate name or a null solver.
  void add(std::shared_ptr<const Solver> solver);

  /// The solver registered under `name`, or nullptr.
  std::shared_ptr<const Solver> find(const std::string& name) const;

  /// True when `name` is registered.
  bool contains(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> names() const;

  std::size_t size() const noexcept { return solvers_.size(); }

  /// The registry of every built-in engine adapter (see
  /// solver/adapters.hpp) plus the default "portfolio". Built once,
  /// shared, immutable.
  static const SolverRegistry& builtin();

 private:
  std::map<std::string, std::shared_ptr<const Solver>> solvers_;
};

}  // namespace prts::solver
