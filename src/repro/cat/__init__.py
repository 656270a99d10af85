"""A ``.cat`` model DSL in the style of herding cats [5].

The paper's companion material ships every proposed model "in the .cat
format"; this package reproduces that artefact.  It implements a cat
dialect — lexer (:mod:`repro.cat.lexer`), parser
(:mod:`repro.cat.parser`), and a compiler onto the unified relational IR
(:mod:`repro.cat.compile`), which is the only meaning a source has —
plus the model files themselves under :mod:`repro.cat.library` and
:class:`repro.cat.model.CatModel`, the :class:`repro.ir.model.IRModel`
a ``.cat`` file defines, interchangeable with the native Python
models.  Every check, flag and binding is an IR
evaluation, and an ill-formed source is rejected when it is compiled
(every :class:`CatError` is a :class:`ValueError` carrying its line and
column).  ``tests/test_cat_models.py`` cross-validates the two
implementations of every model against each other on the paper catalog
and on exhaustively enumerated executions.

Dialect notes (where cat implementations differ, we pick one reading and
the library files stick to it):

* postfix ``^+``/``^*``/``^?``/``^-1`` for closures and converse; bare
  postfix ``+`` and ``?`` are also accepted (they are unambiguous), but
  reflexive-transitive closure must be written ``^*`` because infix ``*``
  is reserved for the Cartesian product of two event sets;
* operator precedence, loosest to tightest:
  ``|``  <  ``&``  <  ``\\``  <  ``;``  <  ``*``  <  unary ``~``  <
  postfix closures;
* ``let rec ... and ...`` computes a simultaneous least fixpoint from
  empty relations (exactly how ``ppo`` is defined for Power);
* event sets are auto-promoted to identity relations when composed with
  ``;`` and when checked (write ``[S]`` to be explicit), and nowhere
  else: a closure or converse of an event set is a type error;
* ``acyclic | irreflexive | empty expr as name`` define consistency
  axioms, and a ``~`` prefix negates one (the check holds when the
  relation is cyclic, reflexive or non-empty); ``flag <check>`` records
  a non-consistency diagnostic (used for race detection);
  ``show``/``unshow`` are parsed and ignored.
"""

from .errors import CatError, CatSyntaxError, CatTypeError, CatNameError
from .library import library_path, library_source
from .model import CatModel, load_cat_model, CAT_MODEL_FILES
from .parser import parse

__all__ = [
    "CatError",
    "CatSyntaxError",
    "CatTypeError",
    "CatNameError",
    "CatModel",
    "CAT_MODEL_FILES",
    "library_path",
    "library_source",
    "load_cat_model",
    "parse",
]
