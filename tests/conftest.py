import pytest

from hindimorph import data_path
from hindimorph.fst import SymbolTable
from hindimorph import morph, rules, tagger


@pytest.fixture(scope="session")
def grammar_symbols():
    return SymbolTable()


@pytest.fixture(scope="session")
def grammar(grammar_symbols):
    return rules.compile_file(data_path("rules", "hindi.mrl"), grammar_symbols)


@pytest.fixture(scope="session")
def morph_model(grammar):
    indecl = morph.load_indeclinables(data_path("indeclinables.tsv"))
    return morph.MorphModel(grammar=grammar, indeclinables=indecl)


@pytest.fixture(scope="session")
def mini_corpus():
    return tagger.TaggedCorpus.read(data_path("tagged_mini.txt"))


@pytest.fixture(scope="session")
def tag_model(mini_corpus):
    # the default 100-epoch training; shared by the tagger, CLI and acceptance tests
    return tagger.train(mini_corpus, tagger.TrainConfig())
