"""Set-up a command-line user pays on every run: start the interpreter,
import nfsar and load and hash a workload config.  run.py times this
script until it prints the config hash."""

import sys

from nfsar import cli_io

config = cli_io.load_config(sys.argv[1])
print(config.config_hash, flush=True)
