"""Interactive theory-change shell (``python -m repro shell``).

A tiny line-oriented REPL around one :class:`KnowledgeBase` session:

.. code-block:: text

    repro> init a & b
    repro> revise !a
    repro> ask b
    yes
    repro> history
    1. revise[dalal] with !a: 1 -> 1 models
    repro> undo
    repro> show

Commands: ``init``, ``constrain``, ``show``, ``models``, ``history``,
``undo``, ``help``, ``quit``, and every op of the Boolean verb table
(:data:`~repro.kb.knowledge_base.VERBS`): ``revise``, ``update``,
``fit``, ``arbitrate``, ``contract``, ``erase``, ``merge`` (sources
separated by ``;``) and ``ask``.  The shell is a thin loop over the
library façade, usable programmatically (tests drive it through string
I/O).
"""

from __future__ import annotations

from typing import Callable, TextIO

from repro.errors import ReproError
from repro.kb.knowledge_base import VERBS, KnowledgeBase

__all__ = ["Shell"]

_HELP = """commands:
  init <formula>        start a fresh knowledge base
  constrain <formula>   restart with integrity constraints (keeps theory)
  revise <formula>      AGM/KM revision (new info wins)
  update <formula>      KM update (the world changed)
  arbitrate <formula>   arbitration (equal voices)
  fit <formula>         model-fitting psi > mu
  contract <formula>    stop believing
  erase <formula>       erase (update dual)
  merge <f1>; <f2>; ... consensus with the sources (equal voices)
  ask <formula>         yes / no / unknown
  show                  print the current theory (minimized)
  models                print the current models
  history               print the provenance log
  undo                  drop the latest change
  help                  this text
  quit                  leave the shell"""


class Shell:
    """The REPL engine, decoupled from stdin/stdout for testability."""

    def __init__(self, out: TextIO):
        self._out = out
        self._states: list[KnowledgeBase] = []

    # -- helpers ----------------------------------------------------------------

    def _print(self, text: str) -> None:
        print(text, file=self._out)

    def _current(self) -> KnowledgeBase:
        if not self._states:
            raise ReproError("no knowledge base yet; use: init <formula>")
        return self._states[-1]

    def _push(self, kb: KnowledgeBase) -> None:
        self._states.append(kb)

    # -- command handlers ----------------------------------------------------------

    def _cmd_init(self, argument: str) -> None:
        self._states = [KnowledgeBase(argument)]
        self._print(f"ok: {len(self._current().model_set)} model(s)")

    def _cmd_constrain(self, argument: str) -> None:
        current = self._current()
        self._states = [
            KnowledgeBase(
                current.to_formula(minimize=False),
                atoms=None,
                constraints=argument,
            )
        ]
        self._print(f"ok: {len(self._current().model_set)} model(s) under constraints")

    def _verb(self, op: str, argument: str) -> None:
        """Run a verb of the Boolean table: print an ``ask`` answer, push
        a change."""
        value = argument.split(";") if VERBS[op] == "sources" else argument
        result = getattr(self._current(), op)(value)
        if op == "ask":
            self._print(result)
            return
        self._push(result)
        self._print(f"ok: {len(result.model_set)} model(s)")

    def _cmd_show(self, argument: str) -> None:
        self._print(str(self._current().to_formula()))

    def _cmd_models(self, argument: str) -> None:
        for interpretation in self._current().model_set:
            self._print(f"  {interpretation!r}")

    def _cmd_history(self, argument: str) -> None:
        history = self._current().history
        if not history:
            self._print("(no changes)")
        for index, record in enumerate(history, start=1):
            self._print(f"{index}. {record}")

    def _cmd_undo(self, argument: str) -> None:
        if len(self._states) <= 1:
            self._print("nothing to undo")
            return
        self._states.pop()
        self._print(f"ok: back to {len(self._current().model_set)} model(s)")

    def _cmd_help(self, argument: str) -> None:
        self._print(_HELP)

    # -- dispatch -----------------------------------------------------------------

    def execute(self, line: str) -> bool:
        """Run one command line; returns False when the session should end."""
        stripped = line.strip()
        if not stripped:
            return True
        command, _, argument = stripped.partition(" ")
        command = command.lower()
        argument = argument.strip()
        if command in ("quit", "exit"):
            return False
        handlers: dict[str, Callable[[str], None]] = {
            "init": self._cmd_init,
            "constrain": self._cmd_constrain,
            "show": self._cmd_show,
            "models": self._cmd_models,
            "history": self._cmd_history,
            "undo": self._cmd_undo,
            "help": self._cmd_help,
        }
        if (command in ("init", "constrain") or command in VERBS) and not argument:
            self._print(f"usage: {command} <{VERBS.get(command, 'formula')}>")
            return True
        try:
            if command in handlers:
                handlers[command](argument)
            elif command in VERBS:
                self._verb(command, argument)
            else:
                self._print(f"unknown command {command!r}; try: help")
        except ReproError as error:
            self._print(f"error: {error}")
        return True

    def run(self, stream: TextIO, prompt: str = "repro> ") -> None:
        """Drive the REPL from a line stream (stdin or a test harness)."""
        self._out.write(prompt)
        self._out.flush()
        for line in stream:
            if not self.execute(line):
                break
            self._out.write(prompt)
            self._out.flush()
        self._print("")
