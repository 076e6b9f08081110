"""The plain reader of gtsys calls agrees with argparse.

cli._read_plain reads a plain call from the option table, without argparse.
On a generated corpus of calls of every command, mixing full and abbreviated
option names, --opt=value, repeated options, odd and bad values, missing
required options and both --action and --a, each call is either declined by
the reader (argparse then parses it) or read exactly as
build_parser().parse_args reads it.
"""

import random

import pytest

from gtsystems import cli

# values each option takes in the corpus: mostly good, some odd but valid
GOOD = {
    "--format": ["json", "md", "csv"],
    "--out": ["x.json"],
    "--d": ["7", "13", " 7", "1_3"],
    "--action": ["0,1,3", "1,2,x", ""],
    "--a": ["3", "0"],
    "--b": ["5"],
    "--seed": ["4", "٤"],  # an Arabic-Indic four, which int reads
    "--general-l": ["2", "0", str(cli.GENERAL_L_LIMIT)],
    "--coeff": ["0,0,1,3,3,5"],
    "--dmax": ["5"],
    "--type": ["ceva", "hd"],
}
BAD = ["", "-1", "--", "x", "xml", "square", "-h", "2.5", str(cli.GENERAL_L_LIMIT + 1)]
STRAY = ["", "-1", "--", "x", "-h", "--help", "--bogus", "extra", "--format=md", "-"]


def _value(option, rng):
    return rng.choice(BAD if rng.random() < 0.15 else GOOD[option])


def _abbreviation(option, rng):
    return option[:rng.randint(3, len(option))]  # "--" and at least one letter


def _mutate(argv, options, rng):
    i = rng.randint(1, len(argv))
    option, kw = rng.choice(options)
    value = [] if kw.get("action") == "store_true" else [_value(option, rng)]
    kind = rng.randrange(5)
    if kind == 0 and len(argv) > 1:
        del argv[rng.randrange(1, len(argv))]  # an option or a value goes missing
    elif kind == 1:
        argv.insert(i, rng.choice(STRAY))
    elif kind == 2:
        argv[i:i] = [_abbreviation(option, rng), *value]
    elif kind == 3:
        argv.insert(i, f"{_abbreviation(option, rng)}={value[0] if value else 'x'}")
    else:
        argv[i:i] = [option, *value]  # a repeat, or one more option


def corpus(name, n, seed):
    """n calls of command name, as argv lists."""
    rng = random.Random(seed)
    _, options, _ = cli._COMMANDS[name]
    for _ in range(n):
        picked = [entry for entry in options
                  if rng.random() < (0.9 if entry[1].get("required") else 0.5)]
        rng.shuffle(picked)
        argv = [name]
        for option, kw in picked:
            argv.append(option)
            if kw.get("action") != "store_true":
                argv.append(_value(option, rng))
        for _ in range(rng.choice((0, 0, 1, 2))):
            _mutate(argv, options, rng)
        yield argv


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_read_plain_declines_or_agrees_with_argparse(name):
    parser = cli.build_parser()
    read = declined = 0
    for argv in corpus(name, 800, seed=sum(map(ord, name))):
        args = cli._read_plain(name, argv[1:])
        if args is None:
            declined += 1
            continue
        read += 1
        assert vars(args) == vars(parser.parse_args(argv)), argv
    # the corpus has many calls of either kind
    assert read >= 80 and declined >= 80, (read, declined)


@pytest.mark.parametrize("argv", [
    ["report", "--act", "0,1,3", "--d", "7"],  # an abbreviation
    ["conjecture-scan", "--d", "5"],  # --d abbreviates --dmax
    ["invariants", "--d=7", "--a", "3"],
    ["invariants", "--d", "7", "--a", "3", "--d", "7"],
    ["invariants", "--d", "7", "--a", "-1"],
    ["invariants", "--d", "7", "--a", "--", "3"],
    ["invariants", "--d", "x", "--a", "3"],
    ["gt-verdict", "--d", "7", "--a", "3", "--general-l", "2.5"],  # no int
    ["surface", "--d", "7", "--format", "xml"],
    ["arrangement", "--d", "3"],  # --type is required
    ["invariants", "--action", "0,1,3"],  # --d is required
    ["minimal", "--d", "7", "--action", "0,1,3", "--a", "3"],
    ["minimal", "--d", "7", "--a", "3", "--subset-oracle", "yes"],
    ["surface", "--d", "7", "-h"],
    ["surface", "--d"],
])
def test_read_plain_declines(argv):
    assert cli._read_plain(argv[0], argv[1:]) is None


def test_a_count_past_its_limit_is_read_plain():
    # --general-l is a plain int: the command, not the parser, refuses the
    # count past GENERAL_L_LIMIT, as a size limit
    n = cli.GENERAL_L_LIMIT + 1
    args = cli._read_plain("gt-verdict", ["--d", "7", "--a", "3", "--general-l", str(n)])
    assert args.general_l == n
