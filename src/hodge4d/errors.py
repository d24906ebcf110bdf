"""Exceptions that the command line catches without loading the numeric solver."""


class SolveError(RuntimeError):
    pass
