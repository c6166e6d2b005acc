"""The README's examples stay valid: every JSON document parses, and every
worked ``heatpar`` command parses with the CLI's own parser.  Nothing is
run."""

import os
import re
import shlex

from heatpar.cli import build_parser
from heatpar.documents import parse_document

ROOT = os.path.join(os.path.dirname(__file__), "..")
# synopsis lines name placeholders or optional and alternative arguments
PLACEHOLDER = re.compile(r"\bFILE\b|\bNAME\b|\[|\|")


def code_blocks(lang):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        text = f.read()
    return [body for tag, body in re.findall(r"```(\w*)\n(.*?)```", text, re.S) if tag == lang]


def worked_commands():
    lines = "\n".join(code_blocks("")).replace("\\\n", " ").splitlines()
    return [ln for ln in lines if ln.startswith("heatpar ") and not PLACEHOLDER.search(ln)]


def test_json_documents_parse():
    docs = code_blocks("json")
    assert docs
    for doc in docs:
        parse_document(doc)


def test_worked_commands_parse():
    commands = worked_commands()
    assert len(commands) >= 8  # three verify, one kernel, four identity
    parser = build_parser()
    for command in commands:
        args = parser.parse_args(shlex.split(command)[1:])
        if getattr(args, "graph", None):
            assert os.path.exists(os.path.join(ROOT, args.graph)), command
