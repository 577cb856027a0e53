(** Positioned I/O: [pread(2)] and [pwrite(2)], one system call each
    (C stubs in [storage_stubs.c]).

    The file offset is an argument, not the descriptor's seek position,
    so threads may share a descriptor.  Like [Unix.read] and
    [Unix.write], a call releases the runtime lock while it waits on
    the kernel and moves at most 64 KiB through a bounce buffer; a
    caller wanting more loops on the returned count.  Errors raise
    [Unix.Unix_error]. *)

val pread : Unix.file_descr -> bytes -> int -> int -> int -> int
(** [pread fd buf file_off buf_off len] reads up to [len] bytes at the
    absolute offset [file_off] into [buf] from [buf_off]; returns the
    number of bytes read (0 at end of file).
    @raise Invalid_argument if [buf_off, len] is not a range of [buf]. *)

val pwrite : Unix.file_descr -> bytes -> int -> int -> int -> int
(** [pwrite fd buf file_off buf_off len] writes up to [len] bytes of
    [buf] from [buf_off] at the absolute offset [file_off]; returns the
    number of bytes written.
    @raise Invalid_argument if [buf_off, len] is not a range of [buf]. *)
