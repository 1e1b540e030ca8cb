(** Text rendering of experiment outputs: aligned tables and ASCII
    CDF/bar plots, used by the bench harness to print the paper's
    tables and figure series. *)

val table :
  header:string list -> string list list -> Format.formatter -> unit -> unit
(** [table ~header rows ppf ()] prints an aligned table with a rule
    under the header: the first column left-aligned, the rest
    right-aligned.
    @raise Invalid_argument when a row width differs from the header. *)

val bar_chart :
  ?width:int -> header:string -> (string * float) list ->
  Format.formatter -> unit -> unit
(** Horizontal bars scaled to the maximum value ([width] columns,
    default 40), with numeric labels — used for Fig. 4a-style grouped
    results. *)

val cdf_plot :
  ?width:int -> ?height:int -> header:string ->
  (string * (float * float) list) list -> Format.formatter -> unit -> unit
(** ASCII rendering of one or more CDF series ([(x, P)] pairs with P in
    [[0, 1]]).  Each series gets a distinct glyph; a legend follows the
    plot.  Used for Fig. 4b. *)

val percent : float -> string
(** [percent 0.1234] is ["12.34%"]. *)
