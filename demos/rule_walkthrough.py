"""From rule text to a transducer, one step at a time."""

from hindimorph import data_path, fst, rules
from hindimorph.fst import SymbolTable

# a miniature grammar: one noun paradigm in the generation direction
# (lexical tape on the left, surface tape on the right)
source = """\
% boy: drop the gender/number tags, flip the final vowel for plural
$Boy$ = लडक ( ा <Noun>:<> <sg>:<> | ा:े <Noun>:<> <pl>:<> )

$Boy$
"""

parsed = rules.parse_rules(source)
print("definitions:", [name for name, _ in parsed.definitions])
print("round-trips through the renderer:",
      rules.parse_rules(rules.render_rules(parsed)).result == parsed.result)

symbols = SymbolTable()
machine = rules.compile(parsed, symbols)
print(f"compiled: {machine.state_count} states, {len(machine.arcs)} arcs")
for lexical, surface in sorted(fst.enumerate_pairs(machine, 12)):
    print(f"  {lexical} -> {surface}")

# generation reads the input (lexical) tape; analysis reads the output
# (surface) tape of the same machine
print("generate:", sorted(s for _, s in fst.apply(machine, "लडका<Noun><sg>")))
print("analyze:", sorted(a for _, a in fst.apply(machine, "लडके", side="output")))

# the bundled demo grammar does the same at a larger scale
symbols = SymbolTable()
grammar = rules.compile_file(data_path("rules", "hindi.mrl"), symbols)
pairs = sorted(fst.enumerate_pairs(grammar, 30))
print(f"\nbundled grammar: {grammar.state_count} states,"
      f" {len(grammar.arcs)} arcs, {len(pairs)} lexical/surface pairs")
for lexical, surface in pairs[:6]:
    print(f"  {lexical} -> {surface}")
print("  ...")
