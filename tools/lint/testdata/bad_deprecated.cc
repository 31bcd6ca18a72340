// Lint fixture: calls to retired API spellings (the `deprecated-api`
// rule) — the deleted positional sweep wrappers the ScanSession builder
// replaced, and the out-param scan_hits overload. Never compiled.
namespace v6::fixture {

void sweep_with_positional_api() {
  run_all_tgas(universe, seeds, alias_list, config, /*jobs=*/4);  // violation
  run_tgas(universe, kinds, seeds, alias_list, config);           // violation
}

void scan_with_out_param() {
  ScanStats stats;
  scanner.scan_hits(targets, type, &stats);  // violation: 3-arg overload
}

}  // namespace v6::fixture
