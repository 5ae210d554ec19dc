"""Set-up probe: everything a fqwilson run does before it computes.

Starts the interpreter, imports fqwilson.cli, parses the command line
and the --field descriptor, and exits.  The benchmark times this
process from spawn to exit as setup_s.

    PYTHONPATH=src python3 perfbench/probe_setup.py survey --field 3 --degree 6
"""

import sys

from fqwilson.cli import build_parser
from fqwilson.gf import parse_field

parse_field(build_parser().parse_args(sys.argv[1:]).field)
