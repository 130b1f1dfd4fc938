// Table II: the evaluated systems and their mechanism composition. The row
// list is the single registry in cfg::evaluatedSystems() — which itself
// appends the TM-backend rows (TL2-STM, Hybrid-TM) from tm::backendRegistry()
// — so this table can never drift from what the sweeps actually run.
#include <cstdio>

#include "common.hpp"
#include "runtime/backends/backend.hpp"

int main() {
  using namespace lktm;
  std::printf("TABLE II. Evaluated Systems (reproduction)\n\n");
  stats::Table t({"System", "Description", "backend", "conflict",
                  "reject action", "priority", "HTMLock", "switching",
                  "lock subscr."});
  for (const auto& s : cfg::evaluatedSystems()) {
    const auto& p = s.policy;
    const std::string backend =
        !s.backend.empty() ? s.backend : tm::defaultBackendFor(p);
    t.addRow({s.name, s.description, backend,
              p.htmEnabled ? core::toString(p.conflict) : "-",
              p.htmEnabled && p.conflict == core::ConflictPolicy::Recovery
                  ? core::toString(p.rejectAction)
                  : "-",
              p.htmEnabled ? core::toString(p.priority) : "-",
              p.htmLock ? "yes" : "no", p.switching ? "yes" : "no",
              // Only Listing 1's stock flavour reads the fallback-lock word
              // inside the transaction; hybrid subscribes the STM clock.
              p.htmEnabled ? (backend == "lockiller" && !p.htmLock ? "yes" : "no")
                           : "-"});
  }
  std::printf("%s\n", t.str().c_str());
  return 0;
}
